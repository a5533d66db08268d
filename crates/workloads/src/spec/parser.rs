//! `parser`-like link parser: sentences become short linkage chains —
//! heads and tails outnumber interiors, so *In=Out* sits in the
//! mid-teens and holds (paper Figure 7A: In=Out stable, 14.2–17.7 %).

use crate::{Input, Workload, WorkloadKind};
use faults::FaultPlan;
use heapmd::{HeapError, Process};
use rand::Rng;
use sim_ds::SimList;

heapmd::interned! {
    /// The names this program interns once per run.
    struct Names {
        main: func("parser::main"),
        read_dict: func("parser::read_dict"),
        parse_sentence: func("parser::parse_sentence"),
        cleanup: func("parser::cleanup"),
    }
}

/// The parser-like linkage workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct Parser;

impl Workload for Parser {
    fn name(&self) -> &'static str {
        "parser"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Spec
    }

    fn default_frq(&self) -> u64 {
        240
    }

    fn run(&self, p: &mut Process, plan: &mut FaultPlan, input: &Input) -> Result<(), HeapError> {
        let names = Names::new(p);
        let mut rng = input.rng();
        // Two fixed chain lengths: "short" parses (length 2 — head and
        // tail only, contributing nothing to In=Out) and "long" parses
        // (length 5 — three In=Out interiors each). Each sentence slot
        // keeps its length for the whole run, so re-parsing does not
        // random-walk the composition — the long:short ratio (set by
        // the input) pins In=Out.
        let sentences = input.scaled(130);
        let long_period = 3 + (input.shape() * 3.0) as usize; // every Nth sentence is long
        let lengths: Vec<usize> = (0..sentences)
            .map(|k| if k % long_period == 0 { 5 } else { 2 })
            .collect();
        let iterations = input.scaled(1500);

        p.enter(names.main);
        // Expression-stack scratch: built and torn down per batch of
        // sentences — the phase residue that keeps parser at ~1 stable
        // metric in the paper rather than 7.
        let mut scratch = crate::PhaseFlipper::new(p, input.scaled(18), "parser.scratch")?;
        let build = |p: &mut Process, len: usize| -> Result<SimList, HeapError> {
            let mut l = SimList::new(p, "parser.linkage");
            for k in 0..len {
                l.push_front(p, k as u64)?;
            }
            Ok(l)
        };

        p.enter(names.read_dict);
        let mut parses: Vec<SimList> = Vec::with_capacity(sentences);
        for &len in &lengths {
            parses.push(build(p, len)?);
        }
        p.leave();

        for i in 0..iterations {
            p.enter(names.parse_sentence);
            // Re-parse one sentence: free its linkage, build anew at
            // the same length.
            let k = rng.gen_range(0..parses.len());
            parses[k].free_all(p)?;
            parses[k] = build(p, lengths[k])?;
            if i % 60 == 0 {
                parses[k].walk(p)?;
                scratch.touch_all(p)?;
            }
            p.leave();
            if i % 250 == 249 {
                scratch.flip(p)?;
            }
        }

        p.enter(names.cleanup);
        scratch.free_all(p)?;
        for mut l in parses {
            l.free_all(p)?;
        }
        p.leave();
        p.leave();
        let _ = plan;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::train;
    use heapmd::MetricKind;

    #[test]
    fn in_eq_out_is_stable_in_the_teens() {
        let outcome = train(&Parser, &Input::set(3));
        let sm = outcome
            .model
            .stable_metric(MetricKind::InEqOut)
            .expect("In=Out must be globally stable for parser");
        assert!(
            sm.min > 5.0 && sm.max < 45.0,
            "interior share off: [{:.1}, {:.1}]",
            sm.min,
            sm.max
        );
    }
}
