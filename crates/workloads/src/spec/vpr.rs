//! `vpr`-like FPGA place-and-route: net connection chains over a sea of
//! leaf routing-resource records. Chain share varies a lot between
//! inputs, so *Outdeg=1* is stable within a run but spans a wide band
//! across inputs (paper Figure 7A: Outdeg=1 stable, 3.7–36.8 %).
//! A routing-usage registry — an array of once-referenced records —
//! grows through the run, which keeps *In=Out* drifting, especially on
//! small inputs: the instability Figures 4–6 show.

use crate::{Input, Workload, WorkloadKind};
use faults::FaultPlan;
use heapmd::{HeapError, Process};
use rand::Rng;
use sim_ds::{BufferPool, SimList};

heapmd::interned! {
    /// The names this program interns once per run.
    struct Names {
        main: func("vpr::main"),
        build_rr_graph: func("vpr::build_rr_graph"),
        read_netlist: func("vpr::read_netlist"),
        alloc_usage_table: func("vpr::alloc_usage_table"),
        place_iteration: func("vpr::place_iteration"),
        cleanup: func("vpr::cleanup"),
        usage_table: site("vpr.usage_table"),
        usage_record: site("vpr.usage_record"),
    }
}

/// The vpr-like place-and-route workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct Vpr;

impl Workload for Vpr {
    fn name(&self) -> &'static str {
        "vpr"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Spec
    }

    fn default_frq(&self) -> u64 {
        220
    }

    fn run(&self, p: &mut Process, plan: &mut FaultPlan, input: &Input) -> Result<(), HeapError> {
        let names = Names::new(p);
        let mut rng = input.rng();
        // The input decides how chain-heavy the netlist is.
        let net_count = 16 + (input.shape() * 48.0) as usize;
        let net_len = 3 + (input.shape() * 7.0) as usize;
        let rr_records = input.scaled(260);
        let iterations = input.scaled(1600);

        p.enter(names.main);
        let mut rr = BufferPool::new(p, rr_records, "vpr.rr_node");
        p.enter(names.build_rr_graph);
        for _ in 0..rr_records {
            rr.acquire(p, 48)?;
        }
        p.leave();

        // Netlist: fixed population of connection chains.
        let mut nets: Vec<SimList> = (0..net_count).map(|_| SimList::new(p, "vpr.net")).collect();
        p.enter(names.read_netlist);
        for net in &mut nets {
            for k in 0..net_len {
                net.push_front(p, k as u64)?;
            }
        }
        p.leave();

        // The routing-usage registry: all usage records are allocated
        // up front (isolated, indegree = outdegree = 0), and the run
        // progressively registers them in the usage table. Each
        // registration converts a (0,0) vertex into a (1,0) one, so
        // In=Out drains steadily over the run while the outdegree
        // metrics stay put — the drift behind Figures 4–6.
        let usage_cap = iterations / 3 + 1;
        p.enter(names.alloc_usage_table);
        let usage_table = p.malloc(usage_cap * 8, names.usage_table)?;
        let mut usage_records: Vec<heapmd::Addr> = Vec::new();
        for _ in 0..usage_cap {
            usage_records.push(p.malloc(16, names.usage_record)?);
        }
        let mut usage_count: usize = 0;
        p.leave();

        for i in 0..iterations {
            p.enter(names.place_iteration);
            // Rip-up and re-route one net: free its chain, rebuild it.
            let n = rng.gen_range(0..nets.len());
            nets[n].free_all(p)?;
            for k in 0..net_len {
                nets[n].push_front(p, k as u64)?;
            }
            rr.acquire(p, 48)?; // churn one rr record
            if i % 3 == 0 && usage_count < usage_cap {
                let rec = usage_records[usage_count];
                p.write_ptr(usage_table.offset(usage_count as u64 * 8), rec)?;
                usage_count += 1;
            }
            if i % 50 == 0 {
                nets[n].walk(p)?;
            }
            p.leave();
        }

        p.enter(names.cleanup);
        for mut net in nets {
            net.free_all(p)?;
        }
        for rec in usage_records {
            p.free(rec)?;
        }
        p.free(usage_table)?;
        rr.drain(p)?;
        p.leave();
        p.leave();
        let _ = plan;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_once, settings_for, train};
    use heapmd::MetricKind;

    #[test]
    fn outdeg1_is_stable_for_vpr() {
        let outcome = train(&Vpr, &Input::set(4));
        let sm = outcome
            .model
            .stable_metric(MetricKind::Outdeg1)
            .expect("Outdeg=1 must be globally stable for vpr");
        assert!(sm.std_change < 5.0);
    }

    #[test]
    fn outdeg1_band_varies_across_inputs() {
        // The paper's vpr row has a wide min..max across inputs.
        let w = Vpr;
        let settings = settings_for(&w);
        let mut mins = Vec::new();
        for input in Input::set(6) {
            let r = run_once(&w, &input, &mut FaultPlan::new(), &settings);
            let series = r.trimmed_series(MetricKind::Outdeg1, &settings);
            let mean = series.iter().sum::<f64>() / series.len() as f64;
            mins.push(mean);
        }
        let lo = mins.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = mins.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            hi - lo > 5.0,
            "expected a wide cross-input band: {lo:.1}..{hi:.1}"
        );
    }
}
