//! The submission cluster index: near-duplicate detection and repair
//! transfer.
//!
//! The fingerprint cache (`crate::cache`) only collapses *exact* canonical
//! matches — same program up to naming and layout.  Real cohorts are
//! redundant one level up as well: most submissions share a structural
//! *skeleton* (the same copied scaffold, the same tutorial shape) while
//! differing in the constants they filled in — a different loop bound, a
//! different initialiser, a different debug string.  Their canonical forms
//! differ, so the cache misses; but their search problems are nearly
//! identical, so re-running a full CEGISMIN descent from the top of the
//! cost scale is mostly wasted work.
//!
//! The cluster index keys submissions on their **skeleton source**
//! ([`afg_ast::canon::skeleton_source`]: alpha-renamed *and*
//! constant-erased).  The first member of a cluster to earn a
//! deterministic repair becomes the cluster *representative*; its minimal
//! [`ChoiceAssignment`] and counterexample set are stored.
//! Every later cluster-mate gets that repair offered to the synthesizer as
//! a [`afg_synth::WarmStart`]:
//!
//! * the hypothesis is **re-verified** against the mate with one bounded
//!   sweep (skeleton equality implies nothing about behaviour — that is
//!   the whole point of the coarser key);
//! * on success, the CEGISMIN minimisation descent opens at the hypothesis
//!   cost instead of `max_cost` and the counterexample bitset is
//!   pre-seeded — typically one verification sweep plus one Unsat proof
//!   instead of a full descent;
//! * on failure, the hypothesis becomes an ordinary blocked candidate and
//!   the search proceeds cold.
//!
//! Either way the descent still runs to Unsat, so **outcomes are
//! cost-identical to cold grading** (asserted by `afg-bench`'s
//! differential test and the classroom CI smoke step).  Two guard rails
//! keep that true even when a search budget truncates the descent: a
//! warm-started search that ends *without* a proof (best-so-far repair or
//! timeout) is thrown away and the submission re-grades cold — a truncated
//! warm trajectory could otherwise make verdicts depend on cluster arrival
//! order — while a warm run that ends *with* a proof is kept, since a
//! proven verdict is deterministic (at worst it strengthens a cold
//! budget-timeout into a real answer, never the reverse).  The index tracks
//! cluster sizes, transfer attempts/hits, and an estimate of the SAT
//! conflicts saved (the representative's recorded search cost minus the
//! warm run's — cluster-mates are near-identical, so the donor's cold cost
//! is a faithful stand-in for the mate's).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use afg_eml::ChoiceAssignment;

/// The verified minimal repair of a cluster representative, in the form a
/// cluster-mate's warm start needs.
#[derive(Debug, Clone)]
pub(crate) struct ClusterRepair {
    /// The representative's minimal choice assignment (its cost is
    /// `assignment.cost()`).
    pub assignment: ChoiceAssignment,
    /// The oracle input indices its search accumulated as counterexamples.
    pub counterexamples: Vec<usize>,
    /// Structural signature of the choice program the assignment indexes
    /// into (`crate::cache::choice_signature`); transfer is only offered
    /// when the mate's choice program has the same signature.
    pub signature: u64,
    /// SAT conflicts the representative's cold search spent, the baseline
    /// for the conflicts-saved estimate.
    pub sat_conflicts: u64,
}

#[derive(Debug, Default)]
struct Cluster {
    /// Submissions observed with this skeleton (distinct canonical forms
    /// only — exact duplicates are absorbed upstream by the fingerprint
    /// cache and never reach the index).
    members: u64,
    /// The representative's repair, once one member earned a
    /// deterministic `Fixed` verdict.
    repair: Option<ClusterRepair>,
    /// Killer-input statistics: oracle input index → how many times that
    /// input surfaced as a counterexample while grading this cohort.  Used
    /// to order future cluster-mates' verification sweeps
    /// counterexample-first beyond the CEGIS-local priority list.
    killer_counts: HashMap<usize, u64>,
}

/// Counters describing the index and how repair transfer has performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterStats {
    /// Distinct skeletons observed.
    pub clusters: usize,
    /// Total members across all clusters.
    pub members: u64,
    /// Size of the largest cluster.
    pub largest: u64,
    /// Clusters that currently hold a transferable repair.
    pub repairs: usize,
    /// Warm starts actually tried by a search (hypothesis fit the mate's
    /// choice program and the mate was incorrect).
    pub transfer_attempts: u64,
    /// Tried hypotheses that verified, short-circuiting the descent.
    pub transfer_hits: u64,
    /// Estimated SAT conflicts saved by hits: Σ max(0, donor conflicts −
    /// warm-run conflicts).
    pub conflicts_saved: u64,
    /// Killer-input observations recorded across all clusters (one per
    /// counterexample discovered while grading a cluster member).
    pub killer_observations: u64,
}

impl ClusterStats {
    /// Hit fraction of attempted transfers in `[0, 1]` (0 when untried).
    pub fn hit_rate(&self) -> f64 {
        if self.transfer_attempts == 0 {
            0.0
        } else {
            self.transfer_hits as f64 / self.transfer_attempts as f64
        }
    }
}

/// Hard bound on stored clusters, for the same reason the fingerprint
/// cache bounds its maps: a long-running daemon must not grow without
/// limit.  Skeletons are far fewer than canonical forms, so this is
/// generous; past it, new skeletons are simply not tracked.
const MAX_CLUSTERS: usize = 65_536;

/// A concurrent map from skeleton source to cluster state.  Shared by
/// reference across grading workers, exactly like the fingerprint cache it
/// sits beside.
#[derive(Debug, Default)]
pub struct ClusterIndex {
    clusters: RwLock<HashMap<String, Cluster>>,
    attempts: AtomicU64,
    hits: AtomicU64,
    conflicts_saved: AtomicU64,
}

impl ClusterIndex {
    /// Creates an empty index.
    pub fn new() -> ClusterIndex {
        ClusterIndex::default()
    }

    /// Current counters.
    pub fn stats(&self) -> ClusterStats {
        let clusters = self.clusters.read().expect("cluster lock");
        ClusterStats {
            clusters: clusters.len(),
            members: clusters.values().map(|c| c.members).sum(),
            largest: clusters.values().map(|c| c.members).max().unwrap_or(0),
            repairs: clusters.values().filter(|c| c.repair.is_some()).count(),
            transfer_attempts: self.attempts.load(Ordering::Relaxed),
            transfer_hits: self.hits.load(Ordering::Relaxed),
            conflicts_saved: self.conflicts_saved.load(Ordering::Relaxed),
            killer_observations: clusters
                .values()
                .map(|c| c.killer_counts.values().sum::<u64>())
                .sum(),
        }
    }

    /// Records one submission with skeleton `key` and returns the cluster
    /// representative's repair, if one exists, for use as a warm start.
    pub(crate) fn observe(&self, key: &str) -> Option<ClusterRepair> {
        let mut clusters = self.clusters.write().expect("cluster lock");
        if let Some(cluster) = clusters.get_mut(key) {
            cluster.members += 1;
            return cluster.repair.clone();
        }
        if clusters.len() < MAX_CLUSTERS {
            clusters.insert(
                key.to_string(),
                Cluster {
                    members: 1,
                    ..Cluster::default()
                },
            );
        }
        None
    }

    /// Records the counterexample input indices that refuted candidates
    /// while grading a member of cluster `key` — the cohort's "killer
    /// inputs".  Called post-grade with a search's accumulated
    /// counterexample set.
    pub(crate) fn record_killers(&self, key: &str, indices: &[usize]) {
        if indices.is_empty() {
            return;
        }
        let mut clusters = self.clusters.write().expect("cluster lock");
        if let Some(cluster) = clusters.get_mut(key) {
            for &index in indices {
                *cluster.killer_counts.entry(index).or_insert(0) += 1;
            }
        }
    }

    /// The cohort's killer inputs for cluster `key`, most lethal first
    /// (count descending, index ascending on ties — deterministic).  A
    /// cluster-mate's verification sweep checks these before the plain
    /// deck order; stale or out-of-range indices are harmless, each is
    /// just a bounded-space input checked early (or skipped).
    pub(crate) fn killer_ordering(&self, key: &str, limit: usize) -> Vec<usize> {
        let clusters = self.clusters.read().expect("cluster lock");
        let Some(cluster) = clusters.get(key) else {
            return Vec::new();
        };
        let mut ranked: Vec<(usize, u64)> = cluster
            .killer_counts
            .iter()
            .map(|(&index, &count)| (index, count))
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(limit);
        ranked.into_iter().map(|(index, _)| index).collect()
    }

    /// Installs `repair` as cluster `key`'s representative unless one is
    /// already installed (first deterministic repair wins; later members
    /// replaying through it keeps the estimate baseline stable).
    pub(crate) fn publish(&self, key: &str, repair: ClusterRepair) {
        let mut clusters = self.clusters.write().expect("cluster lock");
        if let Some(cluster) = clusters.get_mut(key) {
            if cluster.repair.is_none() {
                cluster.repair = Some(repair);
            }
        }
    }

    /// Records the outcome of one offered transfer; `saved` is the
    /// conflicts-saved estimate for a hit (0 for a miss).
    pub(crate) fn record_transfer(&self, verified: bool, saved: u64) {
        self.attempts.fetch_add(1, Ordering::Relaxed);
        afg_obs::counter!(
            "afg_transfer_attempts_total",
            "Cluster repair-transfer hypotheses tried"
        )
        .inc();
        if verified {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.conflicts_saved.fetch_add(saved, Ordering::Relaxed);
            afg_obs::counter!(
                "afg_transfer_hits_total",
                "Cluster repair transfers that verified"
            )
            .inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repair(signature: u64) -> ClusterRepair {
        ClusterRepair {
            assignment: ChoiceAssignment::default_choices(),
            counterexamples: vec![0, 3],
            signature,
            sat_conflicts: 100,
        }
    }

    #[test]
    fn observe_counts_members_and_returns_the_representative() {
        let index = ClusterIndex::new();
        assert!(index.observe("sk-a").is_none());
        assert!(index.observe("sk-a").is_none(), "no repair published yet");
        index.publish("sk-a", repair(1));
        let transferred = index.observe("sk-a").expect("repair installed");
        assert_eq!(transferred.signature, 1);
        assert_eq!(transferred.counterexamples, vec![0, 3]);

        // First publish wins.
        index.publish("sk-a", repair(2));
        assert_eq!(index.observe("sk-a").unwrap().signature, 1);

        // Publishing onto an unobserved key is a no-op, not a phantom
        // cluster.
        index.publish("sk-ghost", repair(1));
        let stats = index.stats();
        assert_eq!(stats.clusters, 1);
        assert_eq!(stats.members, 4);
        assert_eq!(stats.largest, 4);
        assert_eq!(stats.repairs, 1);
    }

    #[test]
    fn killer_ordering_ranks_by_lethality_then_index() {
        let index = ClusterIndex::new();
        index.observe("sk");
        index.record_killers("sk", &[4, 2, 4]);
        index.record_killers("sk", &[4, 7, 2]);
        index.record_killers("sk", &[9]);
        // Counts: 4→3, 2→2, 7→1, 9→1 ⇒ ties broken by ascending index.
        assert_eq!(index.killer_ordering("sk", 16), vec![4, 2, 7, 9]);
        assert_eq!(index.killer_ordering("sk", 2), vec![4, 2]);
        assert!(index.killer_ordering("unknown", 16).is_empty());
        // Recording against an untracked key is a no-op.
        index.record_killers("unknown", &[1]);
        assert!(index.killer_ordering("unknown", 16).is_empty());
        assert_eq!(index.stats().killer_observations, 7);
    }

    #[test]
    fn transfer_counters_accumulate() {
        let index = ClusterIndex::new();
        index.record_transfer(true, 90);
        index.record_transfer(false, 0);
        index.record_transfer(true, 10);
        let stats = index.stats();
        assert_eq!(stats.transfer_attempts, 3);
        assert_eq!(stats.transfer_hits, 2);
        assert_eq!(stats.conflicts_saved, 100);
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(ClusterStats::default().hit_rate(), 0.0);
    }
}
