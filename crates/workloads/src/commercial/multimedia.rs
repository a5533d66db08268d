//! The multimedia application: codec tables, stream rings, track
//! lists, and property descriptors (paper Figure 7A/B: In=Out stable).
//!
//! Hosts 8 of the Table 2 bugs plus two SWAT-only leaks — see
//! [`crate::bugs`].

use crate::{Input, Workload, WorkloadKind};
use faults::{FaultId, FaultPlan};
use heapmd::{HeapError, Process};
use rand::Rng;
use sim_ds::{
    SimBTree, SimBinTree, SimCircularList, SimDList, SimHashTable, SimList, StaleCache,
    TableDescriptors,
};

heapmd::interned! {
    /// The names this program interns once per run.
    struct Names {
        main: func("mm::main"),
        startup: func("mm::startup"),
        decode_frame: func("mm::decode_frame"),
        sweep: func("mm::sweep"),
        rebuild_indexes: func("mm::rebuild_indexes"),
        shutdown: func("mm::shutdown"),
    }
}

/// The multimedia-player-like workload.
#[derive(Debug, Clone, Copy)]
pub struct Multimedia {
    version: u8,
}

impl Multimedia {
    /// The program at development version `version` (1–5).
    pub fn new(version: u8) -> Self {
        assert!((1..=5).contains(&version), "versions are 1..=5");
        Multimedia { version }
    }

    /// The development version.
    pub fn version(&self) -> u8 {
        self.version
    }
}

impl Workload for Multimedia {
    fn name(&self) -> &'static str {
        "multimedia"
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
        // Successive versions grow the workload slightly without
        // changing the structure mix — the Figure 7B property.
        let vscale = 1.0 + 0.04 * (self.version as f64 - 1.0);
        let sized = |base: usize| ((base as f64 * input.scale() * vscale) as usize).max(1);

        let codec_buckets = sized(192);
        let codec_target = sized(260) as u64;
        let ring_count = sized(24);
        let ring_size = 6;
        let track_target = sized(40);
        let playlist_target = sized(24);
        let tree_baseline = sized(36);
        let iterations = sized(1300);

        p.enter(names.main);

        // --- Startup ---------------------------------------------------
        p.enter(names.startup);
        let mut codecs = SimHashTable::with_fault(
            p,
            codec_buckets,
            "mm.codec",
            FaultId("mm.codec_table.degenerate_hash"),
        )?;
        let mut next_codec = 0u64;
        let mut live_codecs: std::collections::VecDeque<u64> = std::collections::VecDeque::new();
        while (codecs.len() as u64) < codec_target {
            codecs.insert(p, plan, next_codec)?;
            live_codecs.push_back(next_codec);
            next_codec += 1;
        }
        let mut rings: Vec<SimCircularList> = Vec::new();
        for r in 0..ring_count {
            let fault = if r % 2 == 0 {
                FaultId("mm.stream_ring.free_shared_head")
            } else {
                FaultId("mm.mixer_ring.free_shared_head")
            };
            let mut ring = SimCircularList::with_fault(p, "mm.ring", fault);
            for k in 0..ring_size {
                ring.push(p, k as u64)?;
            }
            rings.push(ring);
        }
        let mut tracks = SimDList::with_fault(p, "mm.tracks", FaultId("mm.track_dlist.skip_prev"))?;
        for k in 0..track_target {
            tracks.push_back(p, plan, k as u64)?;
        }
        let mut playlist = SimList::with_fault(p, "mm.playlist", FaultId("mm.playlist.pop_leak"));
        for k in 0..playlist_target {
            playlist.push_front(p, k as u64)?;
        }
        let mut overlay = SimBinTree::with_faults(
            p,
            "mm.overlay",
            FaultId("mm.scene_tree.skip_parent"),
            FaultId("mm.scene_tree.single_child.unused"),
        );
        for _ in 0..tree_baseline {
            overlay.insert(p, plan, rng.gen_range(0..1_000_000))?;
        }
        let index_shard_size = (tree_baseline / 4).max(4);
        let mut media_index: Vec<SimBTree> = Vec::new();
        for _ in 0..4 {
            let mut shard =
                SimBTree::with_fault(p, "mm.media_index", FaultId("mm.index_btree.skip_sibling"))?;
            for _ in 0..index_shard_size {
                shard.insert(p, plan, rng.gen_range(0..1_000_000))?;
            }
            media_index.push(shard);
        }
        let mut codec_props = TableDescriptors::with_fault(
            p,
            16,
            "mm.codec_props",
            FaultId("mm.codec_props.typo_leak"),
        )?;
        for j in 0..16 {
            codec_props.set_props(p, j, 1 + (j % 2))?;
        }
        let mut registry =
            StaleCache::with_fault(p, 8, "mm.registry", FaultId("mm.registry.reachable_leak"))?;
        let mut thumbs =
            SimList::with_fault(p, "mm.thumb_list", FaultId("mm.thumb_list.tiny_leak"));
        for k in 0..8 {
            thumbs.push_front(p, k)?;
        }
        // Demux scratch: built per title, torn down between titles.
        let mut demux = crate::PhaseFlipper::new(p, sized(24), "mm.demux")?;
        p.leave();

        // --- Playback loop ----------------------------------------------
        let rebuild_period = 260;
        for i in 0..iterations {
            p.enter(names.decode_frame);
            // Codec table churn.
            codecs.lookup(p, rng.gen_range(0..next_codec.max(1)))?;
            codecs.insert(p, plan, next_codec)?;
            live_codecs.push_back(next_codec);
            next_codec += 1;
            if codecs.len() as u64 > codec_target {
                if let Some(victim) = live_codecs.pop_front() {
                    codecs.remove(p, victim)?;
                }
            }
            // Ring scheduling: produce one node, consume one.
            let r = i % rings.len();
            rings[r].push(p, i as u64)?;
            rings[r].rotate_free_head(p, plan)?;
            // Track list churn.
            if let Some(front) = tracks.front(p)? {
                tracks.remove(p, front)?;
            }
            tracks.push_back(p, plan, i as u64)?;
            // Playlist rotation (pop + push: the leak call-site).
            playlist.pop_front(p, plan)?;
            playlist.push_front(p, i as u64)?;
            // Index updates trickle split traffic through the B-tree.
            if i % 6 == 0 {
                let shard_idx = rng.gen_range(0..media_index.len());
                media_index[shard_idx].insert(p, plan, rng.gen_range(0..1_000_000))?;
            }
            // Rebuild a shard more often than the big epoch so shard
            // growth stays a ripple, not a drift.
            if i % 64 == 63 {
                let shard_idx = (i / 64) % media_index.len();
                let mut fresh = SimBTree::with_fault(
                    p,
                    "mm.media_index",
                    FaultId("mm.index_btree.skip_sibling"),
                )?;
                for _ in 0..index_shard_size {
                    fresh.insert(p, plan, rng.gen_range(0..1_000_000))?;
                }
                std::mem::replace(&mut media_index[shard_idx], fresh).free_all(p)?;
            }
            // Property refresh every few frames (the Fig.11 call-site).
            if i % 12 == 0 {
                let j = rng.gen_range(0..16);
                codec_props.collect_props(p, plan, j)?;
                codec_props.set_props(p, j, 1 + (j % 2))?;
            }
            // Registry rotates briskly when healthy (the reachable
            // leak disables its eviction, and only the hot tail keeps
            // being read); thumbnails tick over.
            if i % 48 == 0 {
                registry.insert(p, plan, i as u64)?;
            }
            if i % 8 == 4 {
                registry.touch_recent(p, 8)?;
            }
            if i % 10 == 0 {
                thumbs.push_front(p, i as u64)?;
                thumbs.pop_front(p, plan)?;
            }
            // Maintenance sweep: long-running media apps revisit their
            // working set (render, seek, save); the registry cache is
            // deliberately left cold.
            if i % 40 == 17 {
                p.enter(names.sweep);
                for ring in &rings {
                    ring.walk(p)?;
                }
                for shard in &media_index {
                    shard.touch_all(p)?;
                }
                overlay.touch_all(p)?;
                tracks.walk(p)?;
                playlist.walk(p)?;
                thumbs.walk(p)?;
                codecs.longest_chain(p)?;
                demux.touch_all(p)?;
                for j in 0..16 {
                    codec_props.walk_props(p, j)?;
                }
                p.leave();
            }
            p.leave();
            if i % 280 == 279 {
                demux.flip(p)?;
            }

            // Epoch: rebuild one index shard and the overlay tree —
            // staggered, so the transient stays a small fraction of
            // the heap.
            if i % rebuild_period == rebuild_period - 1 {
                p.enter(names.rebuild_indexes);
                overlay.free_all(p)?;
                for _ in 0..tree_baseline {
                    overlay.insert(p, plan, rng.gen_range(0..1_000_000))?;
                }
                let shard_idx = (i / rebuild_period) % media_index.len();
                let mut fresh = SimBTree::with_fault(
                    p,
                    "mm.media_index",
                    FaultId("mm.index_btree.skip_sibling"),
                )?;
                for _ in 0..index_shard_size {
                    fresh.insert(p, plan, rng.gen_range(0..1_000_000))?;
                }
                std::mem::replace(&mut media_index[shard_idx], fresh).free_all(p)?;
                p.leave();
            }
        }

        // --- Shutdown ----------------------------------------------------
        p.enter(names.shutdown);
        overlay.free_all(p)?;
        for shard in media_index {
            shard.free_all(p)?;
        }
        tracks.free_all(p)?;
        playlist.free_all(p)?;
        for ring in rings {
            ring.free_all(p)?;
        }
        codecs.free_all(p)?;
        codec_props.free_all(p)?;
        registry.free_all(p)?;
        thumbs.free_all(p)?;
        demux.free_all(p)?;
        p.leave();
        p.leave();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::train;

    #[test]
    fn multimedia_has_stable_metrics() {
        let outcome = train(&Multimedia::new(1), &Input::set(3));
        assert!(
            !outcome.model.stable.is_empty(),
            "multimedia must calibrate at least one stable metric"
        );
        // With only 3 training inputs an occasional run may stray just
        // outside the others' calibrated envelope — the paper treats
        // such training inputs as suspect, not as an error.
        assert!(outcome.flagged_runs.len() <= 1, "too many flagged runs");
    }

    #[test]
    fn versions_share_stable_metrics() {
        let m1 = train(&Multimedia::new(1), &Input::set(3)).model;
        let m4 = train(&Multimedia::new(4), &Input::set(3)).model;
        let k1: Vec<_> = m1.stable.iter().map(|s| s.kind).collect();
        let k4: Vec<_> = m4.stable.iter().map(|s| s.kind).collect();
        assert!(
            k1.iter().any(|k| k4.contains(k)),
            "v1 {:?} and v4 {:?} share no stable metric",
            k1,
            k4
        );
    }
}
