//! The interactive web application: DOM and form trees, session and
//! navigation lists, a URL index, render caches (paper Figure 7A/B:
//! Indeg=1 stable).
//!
//! Hosts 10 of the Table 2 bugs, three reachable leaks, one tiny leak,
//! and the benign stale render cache that makes SWAT false-positive in
//! Table 1.

use crate::{Input, Workload, WorkloadKind};
use faults::{FaultId, FaultPlan};
use heapmd::{HeapError, Process};
use rand::Rng;
use sim_ds::{
    GraphShape, SimBTree, SimBinTree, SimDList, SimGraph, SimList, StaleCache, TableDescriptors,
};

heapmd::interned! {
    /// The names this program interns once per run.
    struct Names {
        main: func("webapp::main"),
        startup: func("webapp::startup"),
        handle_request: func("webapp::handle_request"),
        sweep: func("webapp::sweep"),
        navigate: func("webapp::navigate"),
        shutdown: func("webapp::shutdown"),
    }
}

/// The interactive-web-app-like workload.
#[derive(Debug, Clone, Copy)]
pub struct WebApp {
    version: u8,
}

impl WebApp {
    /// The program at development version `version` (1–5).
    pub fn new(version: u8) -> Self {
        assert!((1..=5).contains(&version), "versions are 1..=5");
        WebApp { version }
    }

    /// The development version.
    pub fn version(&self) -> u8 {
        self.version
    }
}

impl Workload for WebApp {
    fn name(&self) -> &'static str {
        "webapp"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Commercial
    }

    fn default_frq(&self) -> u64 {
        400
    }

    fn run(&self, p: &mut Process, plan: &mut FaultPlan, input: &Input) -> Result<(), HeapError> {
        let names = Names::new(p);
        let mut rng = input.rng();
        let vscale = 1.0 + 0.04 * (self.version as f64 - 1.0);
        let sized = |base: usize| ((base as f64 * input.scale() * vscale) as usize).max(1);

        let dom_baseline = sized(140);
        let form_baseline = sized(60);
        let index_baseline = sized(90);
        let session_target = sized(36);
        let nav_target = sized(24);
        let requests = sized(1200);

        p.enter(names.main);

        p.enter(names.startup);
        let mut dom = SimBinTree::with_faults(
            p,
            "webapp.dom",
            FaultId("webapp.dom_tree.skip_parent"),
            FaultId("webapp.dom_tree.single_child.unused"),
        );
        for _ in 0..dom_baseline {
            dom.insert(p, plan, rng.gen_range(0..1_000_000))?;
        }
        let mut form = SimBinTree::with_faults(
            p,
            "webapp.form",
            FaultId("webapp.form_tree.skip_parent"),
            FaultId("webapp.form_tree.single_child.unused"),
        );
        for _ in 0..form_baseline {
            form.insert(p, plan, rng.gen_range(0..1_000_000))?;
        }
        let index_shard_size = (index_baseline / 4).max(4);
        let mut index: Vec<SimBTree> = Vec::new();
        for _ in 0..4 {
            let mut shard = SimBTree::with_fault(
                p,
                "webapp.url_index",
                FaultId("webapp.index_btree.skip_sibling"),
            )?;
            for _ in 0..index_shard_size {
                shard.insert(p, plan, rng.gen_range(0..1_000_000))?;
            }
            index.push(shard);
        }
        let mut sessions = SimDList::with_fault(
            p,
            "webapp.sessions",
            FaultId("webapp.session_dlist.skip_prev"),
        )?;
        for k in 0..session_target {
            sessions.push_back(p, plan, k as u64)?;
        }
        let mut nav = SimDList::with_fault(p, "webapp.nav", FaultId("webapp.nav_dlist.skip_prev"))?;
        for k in 0..nav_target {
            nav.push_back(p, plan, k as u64)?;
        }
        let mut session_props = TableDescriptors::with_fault(
            p,
            24,
            "webapp.session_props",
            FaultId("webapp.session_props.typo_leak"),
        )?;
        let mut tmpl_props = TableDescriptors::with_fault(
            p,
            24,
            "webapp.tmpl_props",
            FaultId("webapp.tmpl_props.typo_leak"),
        )?;
        for j in 0..24 {
            session_props.set_props(p, j, 2)?;
            tmpl_props.set_props(p, j, 2)?;
        }
        let mut req_log =
            SimList::with_fault(p, "webapp.req_log", FaultId("webapp.req_log.pop_leak"));
        let mut cookies = SimList::with_fault(
            p,
            "webapp.cookie_list",
            FaultId("webapp.cookie_list.pop_leak"),
        );
        for k in 0..16 {
            req_log.push_front(p, k)?;
            cookies.push_front(p, k)?;
        }
        // Site graph: regenerated per navigation epoch; the atypical
        // fault turns it into a star.
        let mut sitegraph = SimGraph::generate_with_fault(
            p,
            plan,
            sized(40),
            2,
            GraphShape::Uniform,
            input.seed,
            "webapp.sitegraph",
            FaultId("webapp.sitegraph.atypical"),
        )?;
        // Caches & registries: the benign render cache (SWAT's false
        // positive) plus the three reachable-leak registries.
        let mut render_cache = StaleCache::with_fault(
            p,
            sized(30),
            "webapp.render_cache",
            FaultId("webapp.render_cache.never"),
        )?;
        for k in 0..sized(30) {
            render_cache.insert(p, plan, k as u64)?;
        }
        let mut res_registry = StaleCache::with_fault(
            p,
            8,
            "webapp.res_registry",
            FaultId("webapp.res_registry.reachable_leak"),
        )?;
        let mut blob_registry = StaleCache::with_fault(
            p,
            8,
            "webapp.blob_registry",
            FaultId("webapp.blob_registry.reachable_leak"),
        )?;
        let mut hist_registry = StaleCache::with_fault(
            p,
            8,
            "webapp.hist_registry",
            FaultId("webapp.hist_registry.reachable_leak"),
        )?;
        let mut tmp_files =
            SimList::with_fault(p, "webapp.tmp_list", FaultId("webapp.tmp_list.tiny_leak"));
        let mut fragments =
            SimList::with_fault(p, "webapp.frag_list", FaultId("webapp.frag_list.tiny_leak"));
        for k in 0..8 {
            tmp_files.push_front(p, k)?;
            fragments.push_front(p, k)?;
        }
        // Shared-node scratch: DOM nodes briefly double-referenced
        // while a render transaction pins them. Small enough that the
        // Indeg=1 signature stays within thresholds while Indeg=2 does
        // not.
        let mut pins = crate::PhaseFlipper::with_style(
            p,
            sized(14),
            "webapp.pins",
            crate::FlipStyle::DoubleLink,
        )?;
        p.leave();

        let rebuild_period = 240;
        for i in 0..requests {
            p.enter(names.handle_request);
            // DOM churn: balanced insert + leaf removal keeps the tree
            // at its baseline size while exercising the buggy insert.
            dom.insert(p, plan, rng.gen_range(0..1_000_000))?;
            dom.pop_leaf(p)?;
            form.insert(p, plan, rng.gen_range(0..1_000_000))?;
            form.pop_leaf(p)?;
            index[i % 4].contains(p, rng.gen_range(0..1_000_000))?;
            if i % 4 == 0 {
                index[rng.gen_range(0..4)].insert(p, plan, rng.gen_range(0..1_000_000))?;
            }
            // Session/navigation list churn.
            if let Some(front) = sessions.front(p)? {
                sessions.remove(p, front)?;
            }
            sessions.push_back(p, plan, i as u64)?;
            if let Some(front) = nav.front(p)? {
                nav.remove(p, front)?;
            }
            nav.push_back(p, plan, i as u64)?;
            // Logs rotate (the pop-leak call-sites).
            req_log.push_front(p, i as u64)?;
            req_log.pop_front(p, plan)?;
            cookies.push_front(p, i as u64)?;
            cookies.pop_front(p, plan)?;
            // Property refreshes (the Fig.11 call-sites).
            if i % 6 == 0 {
                let j = rng.gen_range(0..24);
                session_props.collect_props(p, plan, j)?;
                session_props.set_props(p, j, 2)?;
                let j = rng.gen_range(0..24);
                tmpl_props.collect_props(p, plan, j)?;
                tmpl_props.set_props(p, j, 2)?;
            }
            if i % 260 == 259 {
                pins.flip(p)?;
            }
            // Maintenance sweep: sessions, DOM, and indexes are hot;
            // the render cache and the leak-prone registries stay cold.
            if i % 40 == 17 {
                p.enter(names.sweep);
                pins.touch_all(p)?;
                dom.touch_all(p)?;
                form.touch_all(p)?;
                for shard in &index {
                    shard.touch_all(p)?;
                }
                sessions.walk(p)?;
                nav.walk(p)?;
                req_log.walk(p)?;
                cookies.walk(p)?;
                tmp_files.walk(p)?;
                fragments.walk(p)?;
                for j in 0..24 {
                    session_props.walk_props(p, j)?;
                    tmpl_props.walk_props(p, j)?;
                }
                sitegraph.touch_all(p)?;
                p.leave();
            }
            // Registries trickle slowly (a leaked registry must stay a
            // sliver of the heap — reachable leaks are invisible to
            // HeapMD precisely because they do not bend the shape);
            // the render cache is read only rarely.
            if i % 40 == 0 {
                res_registry.insert(p, plan, i as u64)?;
                blob_registry.insert(p, plan, i as u64)?;
                hist_registry.insert(p, plan, i as u64)?;
            }
            if i % 16 == 9 {
                // Only the hot tail of each registry is consulted; a
                // leaked (ever-growing) registry accumulates a stale
                // body behind it.
                res_registry.touch_recent(p, 8)?;
                blob_registry.touch_recent(p, 8)?;
                hist_registry.touch_recent(p, 8)?;
            }
            if i % 8 == 0 {
                tmp_files.push_front(p, i as u64)?;
                tmp_files.pop_front(p, plan)?;
                fragments.push_front(p, i as u64)?;
                fragments.pop_front(p, plan)?;
            }
            p.leave();

            if i % rebuild_period == rebuild_period - 1 {
                p.enter(names.navigate);
                dom.free_all(p)?;
                for _ in 0..dom_baseline {
                    dom.insert(p, plan, rng.gen_range(0..1_000_000))?;
                }
                form.free_all(p)?;
                for _ in 0..form_baseline {
                    form.insert(p, plan, rng.gen_range(0..1_000_000))?;
                }
                let fresh = SimGraph::generate_with_fault(
                    p,
                    plan,
                    sized(40),
                    2,
                    GraphShape::Uniform,
                    input.seed ^ i as u64,
                    "webapp.sitegraph",
                    FaultId("webapp.sitegraph.atypical"),
                )?;
                std::mem::replace(&mut sitegraph, fresh).free_all(p)?;
                let shard_idx = (i / rebuild_period) % index.len();
                let mut fresh = SimBTree::with_fault(
                    p,
                    "webapp.url_index",
                    FaultId("webapp.index_btree.skip_sibling"),
                )?;
                for _ in 0..index_shard_size {
                    fresh.insert(p, plan, rng.gen_range(0..1_000_000))?;
                }
                std::mem::replace(&mut index[shard_idx], fresh).free_all(p)?;
                p.leave();
            }
        }

        p.enter(names.shutdown);
        dom.free_all(p)?;
        form.free_all(p)?;
        for shard in index {
            shard.free_all(p)?;
        }
        sessions.free_all(p)?;
        nav.free_all(p)?;
        session_props.free_all(p)?;
        tmpl_props.free_all(p)?;
        req_log.free_all(p)?;
        cookies.free_all(p)?;
        sitegraph.free_all(p)?;
        render_cache.free_all(p)?;
        res_registry.free_all(p)?;
        blob_registry.free_all(p)?;
        hist_registry.free_all(p)?;
        tmp_files.free_all(p)?;
        fragments.free_all(p)?;
        pins.free_all(p)?;
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
    fn indeg1_is_stable_for_webapp() {
        let outcome = train(&WebApp::new(1), &Input::set(3));
        assert!(
            outcome.model.is_stable(MetricKind::Indeg1),
            "Indeg=1 must be stable for webapp; stable: {:?}",
            outcome
                .model
                .stable
                .iter()
                .map(|s| s.kind)
                .collect::<Vec<_>>()
        );
    }
}
