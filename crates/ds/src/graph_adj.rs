//! An adjacency-list graph — host of the Figure 9 "atypical graphs"
//! localization bug.

use crate::fault_ids::GRAPH_ATYPICAL;
use faults::{FaultId, FaultPlan};
use heapmd::{Addr, AllocSite, HeapError, Process};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Vertex layout: `[0] = adjacency-list head, [8] = payload`.
const ADJ_HEAD: u64 = 0;
const VERTEX_SIZE: usize = 16;
/// Adjacency cell layout: `[0] = next cell, [8] = target vertex`.
const CELL_NEXT: u64 = 0;
const CELL_TARGET: u64 = 8;
const CELL_SIZE: usize = 16;

heapmd::interned! {
    /// Interned ids of the instrumented methods.
    struct Fns {
        generate: func("SimGraph::generate"),
        add_edge: func("SimGraph::add_edge"),
        touch_all: func("SimGraph::touch_all"),
        bfs: func("SimGraph::bfs"),
        free_all: func("SimGraph::free_all"),
    }
}

/// The macroscopic shape of a generated graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphShape {
    /// Each vertex gets `avg_degree` uniformly random out-neighbours —
    /// the typical input the paper's application expected.
    Uniform,
    /// A ring: vertex `i → i+1 (mod n)`.
    Ring,
    /// A star: every vertex points at vertex 0 — the "atypical graph"
    /// the localization bug produced.
    Star,
}

/// A directed graph stored as heap-allocated adjacency lists.
///
/// Vertexes and adjacency cells are separate heap objects, so the
/// heap-graph of an adjacency-list graph is itself characteristic:
/// vertexes have indegree ≈ their graph indegree (+1 for cells naming
/// them), cells form outdeg = 1 chains. The paper's localization bug
/// "produced atypical graphs, which were represented as adjacency
/// lists" — enable [`GRAPH_ATYPICAL`] to make the generator emit a star
/// regardless of the requested shape.
///
/// # Example
///
/// ```
/// use heapmd::{Process, Settings};
/// use faults::FaultPlan;
/// use sim_ds::{GraphShape, SimGraph};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut p = Process::new(Settings::builder().frq(1000).build()?);
/// let mut plan = FaultPlan::new();
/// let g = SimGraph::generate(&mut p, &mut plan, 20, 3, GraphShape::Uniform, 42, "net")?;
/// assert_eq!(g.vertex_count(), 20);
/// assert_eq!(g.edge_count(), 60);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SimGraph {
    vertices: Vec<Addr>,
    cells: Vec<Addr>,
    /// Allocation site of the adjacency cells.
    cell_site: AllocSite,
    fns: Fns,
}

impl SimGraph {
    /// Generates a graph of `n` vertexes.
    ///
    /// For [`GraphShape::Uniform`], each vertex gets `avg_degree`
    /// random out-edges (seeded, deterministic). `avg_degree` is
    /// ignored for the other shapes.
    ///
    /// Fault hook [`GRAPH_ATYPICAL`]: when it fires, the generated
    /// shape becomes [`GraphShape::Star`] regardless of the request.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    #[allow(clippy::too_many_arguments)]
    pub fn generate(
        p: &mut Process,
        plan: &mut FaultPlan,
        n: usize,
        avg_degree: usize,
        shape: GraphShape,
        seed: u64,
        site: &str,
    ) -> Result<Self, HeapError> {
        Self::generate_with_fault(p, plan, n, avg_degree, shape, seed, site, GRAPH_ATYPICAL)
    }

    /// Like [`generate`](Self::generate), with a per-instance fault id
    /// for the atypical-shape call-site.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    #[allow(clippy::too_many_arguments)]
    pub fn generate_with_fault(
        p: &mut Process,
        plan: &mut FaultPlan,
        n: usize,
        avg_degree: usize,
        shape: GraphShape,
        seed: u64,
        site: &str,
        fault: FaultId,
    ) -> Result<Self, HeapError> {
        let fns = Fns::new(p);
        let vsite = p.site(&format!("{site}::vertex"));
        let cell_site = p.site(&format!("{site}::adj_cell"));
        p.enter(fns.generate);
        let shape = if plan.fires(fault) {
            GraphShape::Star
        } else {
            shape
        };
        let mut g = SimGraph {
            vertices: Vec::with_capacity(n),
            cells: Vec::new(),
            cell_site,
            fns,
        };
        for _ in 0..n {
            g.vertices.push(p.malloc(VERTEX_SIZE, vsite)?);
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        match shape {
            GraphShape::Uniform => {
                for i in 0..n {
                    for _ in 0..avg_degree {
                        let j = rng.gen_range(0..n);
                        g.add_edge_inner(p, i, j)?;
                    }
                }
            }
            GraphShape::Ring => {
                for i in 0..n {
                    g.add_edge_inner(p, i, (i + 1) % n)?;
                }
            }
            GraphShape::Star => {
                for i in 1..n {
                    g.add_edge_inner(p, i, 0)?;
                }
            }
        }
        p.leave();
        Ok(g)
    }

    /// Number of vertexes.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges (adjacency cells).
    pub fn edge_count(&self) -> usize {
        self.cells.len()
    }

    /// The vertex handles.
    pub fn vertices(&self) -> &[Addr] {
        &self.vertices
    }

    /// Adds the edge `from → to` by vertex index, allocating its cell at
    /// the graph's adjacency-cell site.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn add_edge(&mut self, p: &mut Process, from: usize, to: usize) -> Result<(), HeapError> {
        p.enter(self.fns.add_edge);
        self.add_edge_inner(p, from, to)?;
        p.leave();
        Ok(())
    }

    fn add_edge_inner(&mut self, p: &mut Process, from: usize, to: usize) -> Result<(), HeapError> {
        let cell = p.malloc(CELL_SIZE, self.cell_site)?;
        self.cells.push(cell);
        let vfrom = self.vertices[from];
        if let Some(head) = p.read_ptr(vfrom.offset(ADJ_HEAD))? {
            p.write_ptr(cell.offset(CELL_NEXT), head)?;
        }
        p.write_ptr(cell.offset(CELL_TARGET), self.vertices[to])?;
        p.write_ptr(vfrom.offset(ADJ_HEAD), cell)?;
        Ok(())
    }

    /// Touches every vertex and adjacency cell (read traffic for
    /// staleness trackers), including components unreachable from
    /// vertex 0.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn touch_all(&self, p: &mut Process) -> Result<(), HeapError> {
        p.enter(self.fns.touch_all);
        for &v in &self.vertices {
            p.read(v)?;
        }
        for &c in &self.cells {
            p.read(c)?;
        }
        p.leave();
        Ok(())
    }

    /// Breadth-first traversal from vertex 0, touching visited objects;
    /// returns the number of reachable vertexes.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn bfs_touch(&self, p: &mut Process) -> Result<usize, HeapError> {
        if self.vertices.is_empty() {
            return Ok(0);
        }
        p.enter(self.fns.bfs);
        use std::collections::{HashMap, VecDeque};
        let index: HashMap<Addr, usize> = self
            .vertices
            .iter()
            .enumerate()
            .map(|(i, &a)| (a, i))
            .collect();
        let mut seen = vec![false; self.vertices.len()];
        let mut q = VecDeque::from([0usize]);
        seen[0] = true;
        let mut visited = 0;
        while let Some(v) = q.pop_front() {
            visited += 1;
            p.read(self.vertices[v])?;
            let mut cell = p.read_ptr(self.vertices[v].offset(ADJ_HEAD))?;
            while let Some(c) = cell {
                p.read(c)?;
                if let Some(target) = p.read_ptr(c.offset(CELL_TARGET))? {
                    if let Some(&t) = index.get(&target) {
                        if !seen[t] {
                            seen[t] = true;
                            q.push_back(t);
                        }
                    }
                }
                cell = p.read_ptr(c.offset(CELL_NEXT))?;
            }
        }
        p.leave();
        Ok(visited)
    }

    /// Frees every cell and vertex, consuming the graph.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn free_all(self, p: &mut Process) -> Result<(), HeapError> {
        p.enter(self.fns.free_all);
        for &c in &self.cells {
            p.free(c)?;
        }
        for &v in &self.vertices {
            p.free(v)?;
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
        Process::new(Settings::builder().frq(10_000).build().unwrap())
    }

    #[test]
    fn uniform_graph_counts() {
        let mut p = process();
        let mut plan = FaultPlan::new();
        let g = SimGraph::generate(&mut p, &mut plan, 30, 4, GraphShape::Uniform, 7, "t").unwrap();
        assert_eq!(g.vertex_count(), 30);
        assert_eq!(g.edge_count(), 120);
        // Heap objects: 30 vertexes + 120 cells.
        assert_eq!(p.heap().live_objects(), 150);
        p.graph().validate().unwrap();
    }

    #[test]
    fn ring_reaches_everything() {
        let mut p = process();
        let mut plan = FaultPlan::new();
        let g = SimGraph::generate(&mut p, &mut plan, 25, 0, GraphShape::Ring, 7, "t").unwrap();
        assert_eq!(g.bfs_touch(&mut p).unwrap(), 25);
    }

    #[test]
    fn star_concentrates_indegree_on_the_hub() {
        let mut p = process();
        let mut plan = FaultPlan::new();
        let g = SimGraph::generate(&mut p, &mut plan, 40, 0, GraphShape::Star, 7, "t").unwrap();
        let hub = p.heap().object_at(g.vertices()[0]).unwrap().id();
        assert_eq!(p.graph().node(hub).unwrap().indegree, 39);
    }

    #[test]
    fn atypical_fault_overrides_requested_shape() {
        let mut clean_p = process();
        let mut buggy_p = process();
        let mut clean_plan = FaultPlan::new();
        let mut buggy_plan = FaultPlan::single(GRAPH_ATYPICAL);
        let _clean = SimGraph::generate(
            &mut clean_p,
            &mut clean_plan,
            50,
            3,
            GraphShape::Uniform,
            9,
            "t",
        )
        .unwrap();
        let _buggy = SimGraph::generate(
            &mut buggy_p,
            &mut buggy_plan,
            50,
            3,
            GraphShape::Uniform,
            9,
            "t",
        )
        .unwrap();
        // The star has far fewer cells and a very different degree mix.
        let clean_m = clean_p.graph().metrics();
        let buggy_m = buggy_p.graph().metrics();
        assert!(
            (clean_m.get(MetricKind::Indeg1) - buggy_m.get(MetricKind::Indeg1)).abs() > 5.0
                || (clean_m.get(MetricKind::Leaves) - buggy_m.get(MetricKind::Leaves)).abs() > 5.0,
            "shapes should be metrically distinguishable"
        );
    }

    #[test]
    fn bfs_on_disconnected_uniform_graph_is_partial_or_total() {
        let mut p = process();
        let mut plan = FaultPlan::new();
        let g = SimGraph::generate(&mut p, &mut plan, 20, 1, GraphShape::Uniform, 3, "t").unwrap();
        let reached = g.bfs_touch(&mut p).unwrap();
        assert!((1..=20).contains(&reached));
    }

    #[test]
    fn free_all_releases_everything() {
        let mut p = process();
        let mut plan = FaultPlan::new();
        let g = SimGraph::generate(&mut p, &mut plan, 15, 2, GraphShape::Uniform, 5, "t").unwrap();
        g.free_all(&mut p).unwrap();
        assert_eq!(p.heap().live_objects(), 0);
        p.graph().validate().unwrap();
    }
}
