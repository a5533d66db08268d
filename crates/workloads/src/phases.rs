//! Phase behaviour for the benchmark programs.
//!
//! Real programs execute in phases, and "different phases of the
//! program exhibit different heap behavior" (§2.1) — which is why the
//! paper finds only a *subset* of the seven metrics globally stable per
//! program (1–6 of 7 in Figure 7A). The synthetic programs' steady
//! churn is naturally far flatter than reality, so each hosts a
//! [`PhaseFlipper`]: a fixed pool of nodes that alternates between a
//! linked-chain topology and an all-isolated topology.
//!
//! The flip moves a block of vertexes between degree classes
//! (indegree 0 ↔ 1, outdegree 0 ↔ 1) while keeping the node count —
//! and therefore the *shares of the untouched classes* — constant. A
//! pool sized at a few percent of the heap leaves large-baseline
//! metrics (a program's Figure 7A signature) within the stability
//! thresholds while blowing the small-baseline ones far past them:
//! exactly the paper's "locally stable" / unstable residue.

use heapmd::{Addr, FuncId, HeapError, Process, NULL};

/// Node layout: `[0] = next`.
const NEXT: u64 = 0;
const NODE_SIZE: usize = 16;

/// Which pair of topologies a [`PhaseFlipper`] alternates between.
/// Each style perturbs a different subset of the seven metrics, so a
/// program can host phase behaviour without touching its signature
/// metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlipStyle {
    /// Chain ↔ all-isolated: moves mass between indegree 0/1 *and*
    /// outdegree 0/1 (Roots, Indeg=1, Leaves, Outdeg=1).
    IsolateChain,
    /// Chain ↔ fan-from-holder: node indegree stays 1; only outdegree
    /// 0/1 (Leaves, Outdeg=1) moves. Roots and the indegree metrics are
    /// untouched.
    FanChain,
    /// Single ↔ double references from the holder: only indegree 1/2
    /// (Indeg=1, Indeg=2) moves. The outdegree metrics and Roots are
    /// untouched.
    DoubleLink,
}

/// A fixed pool of nodes whose topology flips between program phases.
#[derive(Debug, Clone)]
pub struct PhaseFlipper {
    /// Holder object for the fan/double styles (slot `i` → node `i`,
    /// plus slot `k + i` for the double style's second reference).
    holder: Option<Addr>,
    nodes: Vec<Addr>,
    style: FlipStyle,
    linked: bool,
    /// Interned ids of `PhaseFlipper::flip`, `::touch` and `::free`.
    flip_fn: FuncId,
    touch_fn: FuncId,
    free_fn: FuncId,
}

impl PhaseFlipper {
    /// Allocates an [`FlipStyle::IsolateChain`] pool (initially
    /// isolated).
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn new(p: &mut Process, k: usize, site: &str) -> Result<Self, HeapError> {
        PhaseFlipper::with_style(p, k, site, FlipStyle::IsolateChain)
    }

    /// Allocates a pool with an explicit style (initially in the first
    /// topology of the pair: isolated / chain / single-linked).
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn with_style(
        p: &mut Process,
        k: usize,
        site: &str,
        style: FlipStyle,
    ) -> Result<Self, HeapError> {
        let new = p.function("PhaseFlipper::new");
        let flip_fn = p.function("PhaseFlipper::flip");
        let touch_fn = p.function("PhaseFlipper::touch");
        let free_fn = p.function("PhaseFlipper::free");
        let site = p.site(&format!("{site}::phase_node"));
        p.enter(new);
        let holder = match style {
            FlipStyle::IsolateChain => None,
            FlipStyle::FanChain | FlipStyle::DoubleLink => {
                Some(p.malloc((2 * k.max(1)) * 8, site)?)
            }
        };
        let mut nodes = Vec::with_capacity(k);
        for _ in 0..k {
            nodes.push(p.malloc(NODE_SIZE, site)?);
        }
        let mut flipper = PhaseFlipper {
            holder,
            nodes,
            style,
            linked: false,
            flip_fn,
            touch_fn,
            free_fn,
        };
        // The non-isolate styles keep every node referenced at all
        // times; set up the first topology now.
        match style {
            FlipStyle::IsolateChain => {}
            FlipStyle::FanChain => {
                flipper.set_chain_from_holder(p)?;
                flipper.linked = true;
            }
            FlipStyle::DoubleLink => flipper.set_single(p)?,
        }
        p.leave();
        Ok(flipper)
    }

    fn set_chain_from_holder(&mut self, p: &mut Process) -> Result<(), HeapError> {
        let holder = self.holder.expect("fan style has a holder");
        if let Some(&first) = self.nodes.first() {
            p.write_ptr(holder, first)?;
        }
        for i in 1..self.nodes.len() {
            p.write_ptr(holder.offset(i as u64 * 8), NULL)?;
            p.write_ptr(self.nodes[i - 1].offset(NEXT), self.nodes[i])?;
        }
        Ok(())
    }

    fn set_fan(&mut self, p: &mut Process) -> Result<(), HeapError> {
        let holder = self.holder.expect("fan style has a holder");
        for (i, &n) in self.nodes.iter().enumerate() {
            p.write_ptr(holder.offset(i as u64 * 8), n)?;
            p.write_ptr(n.offset(NEXT), NULL)?;
        }
        Ok(())
    }

    fn set_single(&mut self, p: &mut Process) -> Result<(), HeapError> {
        let holder = self.holder.expect("double style has a holder");
        let k = self.nodes.len() as u64;
        for (i, &n) in self.nodes.iter().enumerate() {
            p.write_ptr(holder.offset(i as u64 * 8), n)?;
            p.write_ptr(holder.offset((k + i as u64) * 8), NULL)?;
        }
        Ok(())
    }

    fn set_double(&mut self, p: &mut Process) -> Result<(), HeapError> {
        let holder = self.holder.expect("double style has a holder");
        let k = self.nodes.len() as u64;
        for (i, &n) in self.nodes.iter().enumerate() {
            p.write_ptr(holder.offset((k + i as u64) * 8), n)?;
        }
        Ok(())
    }

    /// Number of pooled nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Returns `true` when the pool is currently chained.
    pub fn is_linked(&self) -> bool {
        self.linked
    }

    /// Flips to the other topology and returns the new state.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn flip(&mut self, p: &mut Process) -> Result<bool, HeapError> {
        p.enter(self.flip_fn);
        match (self.style, self.linked) {
            (FlipStyle::IsolateChain, true) => {
                for &n in &self.nodes {
                    p.write_ptr(n.offset(NEXT), NULL)?;
                }
            }
            (FlipStyle::IsolateChain, false) => {
                for w in self.nodes.windows(2) {
                    p.write_ptr(w[0].offset(NEXT), w[1])?;
                }
            }
            (FlipStyle::FanChain, true) => self.set_fan(p)?,
            (FlipStyle::FanChain, false) => self.set_chain_from_holder(p)?,
            (FlipStyle::DoubleLink, true) => self.set_single(p)?,
            (FlipStyle::DoubleLink, false) => self.set_double(p)?,
        }
        self.linked = !self.linked;
        p.leave();
        Ok(self.linked)
    }

    /// Touches every pooled node (read traffic).
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn touch_all(&self, p: &mut Process) -> Result<(), HeapError> {
        p.enter(self.touch_fn);
        for &n in &self.nodes {
            p.read(n)?;
        }
        p.leave();
        Ok(())
    }

    /// Frees the pool, consuming it.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn free_all(self, p: &mut Process) -> Result<(), HeapError> {
        p.enter(self.free_fn);
        for &n in &self.nodes {
            p.free(n)?;
        }
        if let Some(holder) = self.holder {
            p.free(holder)?;
        }
        p.leave();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heapmd::{MetricKind, Settings};

    fn process() -> Process {
        Process::new(Settings::builder().frq(1_000).build().unwrap())
    }

    #[test]
    fn flip_moves_degree_mass_and_back() {
        let mut p = process();
        let mut f = PhaseFlipper::new(&mut p, 10, "t").unwrap();
        assert!(!f.is_linked());
        let isolated = p.graph().metrics();
        assert_eq!(isolated.get(MetricKind::Roots), 100.0);

        assert!(f.flip(&mut p).unwrap());
        let linked = p.graph().metrics();
        assert_eq!(linked.get(MetricKind::Indeg1), 90.0);
        assert_eq!(linked.get(MetricKind::Roots), 10.0);
        p.graph().validate().unwrap();

        assert!(!f.flip(&mut p).unwrap());
        assert_eq!(p.graph().metrics(), isolated);
    }

    #[test]
    fn fan_style_only_moves_outdegree_metrics() {
        let mut p = process();
        let mut f = PhaseFlipper::with_style(&mut p, 10, "t", FlipStyle::FanChain).unwrap();
        let chain = p.graph().metrics();
        f.flip(&mut p).unwrap();
        let fan = p.graph().metrics();
        // Indegree metrics and roots untouched; leaves/outdeg=1 move.
        assert_eq!(chain.get(MetricKind::Indeg1), fan.get(MetricKind::Indeg1));
        assert_eq!(chain.get(MetricKind::Roots), fan.get(MetricKind::Roots));
        assert_ne!(chain.get(MetricKind::Leaves), fan.get(MetricKind::Leaves));
        p.graph().validate().unwrap();
    }

    #[test]
    fn double_style_only_moves_indegree_metrics() {
        let mut p = process();
        let mut f = PhaseFlipper::with_style(&mut p, 10, "t", FlipStyle::DoubleLink).unwrap();
        let single = p.graph().metrics();
        f.flip(&mut p).unwrap();
        let double = p.graph().metrics();
        assert_eq!(
            single.get(MetricKind::Leaves),
            double.get(MetricKind::Leaves)
        );
        assert_eq!(
            single.get(MetricKind::Outdeg1),
            double.get(MetricKind::Outdeg1)
        );
        assert_ne!(
            single.get(MetricKind::Indeg1),
            double.get(MetricKind::Indeg1)
        );
        assert_ne!(
            single.get(MetricKind::Indeg2),
            double.get(MetricKind::Indeg2)
        );
        p.graph().validate().unwrap();
    }

    #[test]
    fn node_count_is_invariant_across_flips() {
        let mut p = process();
        let mut f = PhaseFlipper::new(&mut p, 8, "t").unwrap();
        let n = p.graph().node_count();
        for _ in 0..5 {
            f.flip(&mut p).unwrap();
            assert_eq!(p.graph().node_count(), n);
        }
        f.touch_all(&mut p).unwrap();
        f.free_all(&mut p).unwrap();
        assert_eq!(p.heap().live_objects(), 0);
    }
}
