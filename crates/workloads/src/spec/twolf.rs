//! `twolf`-like standard-cell placer: the heap is full of *cell*
//! records that each point at exactly two net terminals, so
//! *Outdeg=2* sits near the cell share of the heap and stays there
//! (paper Figure 7A: Outdeg=2 stable, 26.4–32.3 %, and twolf has the
//! most stable metrics of any benchmark — 6).

use crate::{Input, Workload, WorkloadKind};
use faults::FaultPlan;
use heapmd::{Addr, HeapError, Process};
use rand::Rng;

heapmd::interned! {
    /// The names this program interns once per run.
    struct Names {
        place_cell: func("twolf::place_cell"),
        rip_cell: func("twolf::rip_cell"),
        main: func("twolf::main"),
        initial_placement: func("twolf::initial_placement"),
        anneal_step: func("twolf::anneal_step"),
        cleanup: func("twolf::cleanup"),
        cell: site("twolf.cell"),
        terminal: site("twolf.terminal"),
    }
}

/// Cell layout: `[0] = left terminal, [8] = right terminal`.
const CELL_SIZE: usize = 24;
/// Terminals are pointer-free records.
const TERM_SIZE: usize = 16;

/// The twolf-like placement workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct Twolf;

/// One placed cell and its two terminals.
struct Placed {
    cell: Addr,
    left: Addr,
    right: Addr,
}

impl Twolf {
    fn place_cell(p: &mut Process, names: &Names, rng: &mut impl Rng) -> Result<Placed, HeapError> {
        p.enter(names.place_cell);
        let cell = p.malloc(CELL_SIZE, names.cell)?;
        let left = p.malloc(TERM_SIZE, names.terminal)?;
        let right = p.malloc(TERM_SIZE, names.terminal)?;
        p.write_ptr(cell, left)?;
        p.write_ptr(cell.offset(8), right)?;
        p.write_scalar(cell.offset(16))?; // placement coordinates
        let _ = rng;
        p.leave();
        Ok(Placed { cell, left, right })
    }

    fn rip_cell(p: &mut Process, names: &Names, placed: Placed) -> Result<(), HeapError> {
        p.enter(names.rip_cell);
        p.free(placed.cell)?;
        p.free(placed.left)?;
        p.free(placed.right)?;
        p.leave();
        Ok(())
    }
}

impl Workload for Twolf {
    fn name(&self) -> &'static str {
        "twolf"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Spec
    }

    fn default_frq(&self) -> u64 {
        160
    }

    fn run(&self, p: &mut Process, plan: &mut FaultPlan, input: &Input) -> Result<(), HeapError> {
        let names = Names::new(p);
        let _ = plan; // twolf hosts no catalog bugs
        let mut rng = input.rng();
        let population = input.scaled(120);
        let iterations = input.scaled(1800);

        p.enter(names.main);
        // Row-assignment scratch: rebuilt between annealing temperature
        // steps (a fan↔chain flip leaves Outdeg=2 and the indegree
        // metrics alone).
        let mut rows = crate::PhaseFlipper::with_style(
            p,
            input.scaled(10),
            "twolf.rows",
            crate::FlipStyle::FanChain,
        )?;
        let mut placed: Vec<Placed> = Vec::with_capacity(population);
        p.enter(names.initial_placement);
        for _ in 0..population {
            placed.push(Self::place_cell(p, &names, &mut rng)?);
        }
        p.leave();

        // Simulated annealing: swap = rip up one cell, place another.
        for i in 0..iterations {
            p.enter(names.anneal_step);
            let k = rng.gen_range(0..placed.len());
            let old = placed.swap_remove(k);
            Self::rip_cell(p, &names, old)?;
            placed.push(Self::place_cell(p, &names, &mut rng)?);
            if i % 40 == 0 {
                // Cost evaluation touches a sample of cells.
                for _ in 0..4 {
                    let j = rng.gen_range(0..placed.len());
                    p.read(placed[j].cell)?;
                }
                rows.touch_all(p)?;
            }
            p.leave();
            if i % 320 == 319 {
                rows.flip(p)?;
            }
        }

        p.enter(names.cleanup);
        rows.free_all(p)?;
        for cell in placed {
            Self::rip_cell(p, &names, cell)?;
        }
        p.leave();
        p.leave();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::train;
    use heapmd::MetricKind;

    #[test]
    fn outdeg2_is_stable_near_one_third() {
        let outcome = train(&Twolf, &Input::set(3));
        let sm = outcome
            .model
            .stable_metric(MetricKind::Outdeg2)
            .expect("Outdeg=2 must be globally stable for twolf");
        assert!(
            sm.min > 20.0 && sm.max < 45.0,
            "cell share should be near 1/3: [{:.1}, {:.1}]",
            sm.min,
            sm.max
        );
    }

    #[test]
    fn twolf_has_many_stable_metrics() {
        // The paper's most-stable benchmark (6 of 7). The steady
        // swap churn should leave nearly everything flat.
        let outcome = train(&Twolf, &Input::set(3));
        assert!(
            outcome.model.stable.len() >= 5,
            "expected ≥5 stable metrics, got {}",
            outcome.model.stable.len()
        );
    }
}
