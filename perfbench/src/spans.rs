//! In-memory span accounting for the traced run.
//!
//! Every call the traced loop makes into a layer is bracketed by two clock
//! reads; the span's duration and a call count are added to that layer's
//! slot. Nothing is written while the loop runs: the slots are merged
//! across vehicles and turned into per-layer metrics when the run ends.
//!
//! Which span encloses which is fixed by the loop's structure (a `select`
//! only ever runs inside `run_until`, a γ recompute only inside `select`),
//! so each layer names its parent statically and a layer's *self* time is
//! its total minus the totals of its direct children.

use std::time::Instant;

use crate::probe::elapsed_ns;

/// The spans the traced loop records, named after the crate each call
/// enters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole vehicle, set-up to final statistics (the root).
    Vehicle,
    /// `scenarios`: task graph, `Sim::new`, `HcPerf::new`, initial rates.
    Setup,
    /// `taskgraph`: `apollo_graph` (plus the fusion step), inside set-up.
    GraphBuild,
    /// `vehicle`: sensing the plant into the history row.
    Sense,
    /// `rtsim`: `Sim::run_until` to the next physics instant.
    RunUntil,
    /// `core`: `Scheduler::select`, inside `run_until`.
    Select,
    /// `core`: the Eq. 11 γ-search (`recompute_gamma`), inside `select`.
    Gamma,
    /// `rtsim`: command drain, window statistics and rate updates.
    RtsimOther,
    /// `vehicle`: the control law applied to each drained command.
    ControlLaw,
    /// `vehicle`: one physics step of the plant.
    Step,
    /// `core`: `HcPerf::on_period` (PDC Eq. 2–6, TRA Eq. 13).
    OnPeriod,
}

impl Layer {
    /// Every layer, in slot order.
    pub const ALL: [Layer; 11] = [
        Layer::Vehicle,
        Layer::Setup,
        Layer::GraphBuild,
        Layer::Sense,
        Layer::RunUntil,
        Layer::Select,
        Layer::Gamma,
        Layer::RtsimOther,
        Layer::ControlLaw,
        Layer::Step,
        Layer::OnPeriod,
    ];

    /// The span that always encloses this one (`None` for the root).
    #[must_use]
    pub fn parent(self) -> Option<Layer> {
        match self {
            Layer::Vehicle => None,
            Layer::GraphBuild => Some(Layer::Setup),
            Layer::Select => Some(Layer::RunUntil),
            Layer::Gamma => Some(Layer::Select),
            _ => Some(Layer::Vehicle),
        }
    }

    fn slot(self) -> usize {
        self as usize
    }
}

/// Per-layer span totals (nanoseconds) and span counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Spans {
    total_ns: [u64; Layer::ALL.len()],
    count: [u64; Layer::ALL.len()],
}

impl Spans {
    /// Closes a span of `layer` opened at `start`.
    pub fn close(&mut self, layer: Layer, start: Instant) {
        self.add(layer, elapsed_ns(start));
    }

    /// Adds one span of `ns` nanoseconds to `layer`.
    pub fn add(&mut self, layer: Layer, ns: u64) {
        self.total_ns[layer.slot()] = self.total_ns[layer.slot()].saturating_add(ns);
        self.count[layer.slot()] += 1;
    }

    /// Folds another vehicle's spans into these.
    pub fn merge(&mut self, other: &Spans) {
        for layer in Layer::ALL {
            let s = layer.slot();
            self.total_ns[s] = self.total_ns[s].saturating_add(other.total_ns[s]);
            self.count[s] += other.count[s];
        }
    }

    /// Total nanoseconds inside `layer`'s spans, children included.
    #[must_use]
    pub fn total_ns(&self, layer: Layer) -> u64 {
        self.total_ns[layer.slot()]
    }

    /// Number of `layer` spans recorded.
    #[must_use]
    pub fn count(&self, layer: Layer) -> u64 {
        self.count[layer.slot()]
    }

    /// `layer`'s self time: its total minus its direct children's totals.
    #[must_use]
    pub fn self_ns(&self, layer: Layer) -> u64 {
        let children: u64 = Layer::ALL
            .iter()
            .filter(|c| c.parent() == Some(layer))
            .map(|&c| self.total_ns(c))
            .sum();
        self.total_ns(layer).saturating_sub(children)
    }

    /// `layer`'s self time as a share of the root span's total.
    #[must_use]
    pub fn self_share(&self, layer: Layer) -> f64 {
        let root = self.total_ns(Layer::Vehicle);
        if root == 0 {
            0.0
        } else {
            self.self_ns(layer) as f64 / root as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Spans {
        let mut s = Spans::default();
        s.add(Layer::Vehicle, 1000);
        s.add(Layer::Setup, 100);
        s.add(Layer::GraphBuild, 40);
        s.add(Layer::RunUntil, 500);
        s.add(Layer::Select, 200);
        s.add(Layer::Select, 100);
        s.add(Layer::Gamma, 120);
        s.add(Layer::Step, 150);
        s
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let s = sample();
        assert_eq!(s.self_ns(Layer::Gamma), 120);
        assert_eq!(s.self_ns(Layer::Select), 300 - 120);
        assert_eq!(s.self_ns(Layer::RunUntil), 500 - 300);
        assert_eq!(s.self_ns(Layer::Setup), 100 - 40);
        assert_eq!(s.self_ns(Layer::Vehicle), 1000 - 100 - 500 - 150);
        assert_eq!(s.count(Layer::Select), 2);
    }

    #[test]
    fn self_times_partition_the_root() {
        let s = sample();
        let sum: u64 = Layer::ALL.iter().map(|&l| s.self_ns(l)).sum();
        assert_eq!(sum, s.total_ns(Layer::Vehicle));
        let shares: f64 = Layer::ALL.iter().map(|&l| s.self_share(l)).sum();
        assert!((shares - 1.0).abs() < 1e-12, "{shares}");
    }

    #[test]
    fn merge_adds_totals_and_counts() {
        let mut a = sample();
        a.merge(&sample());
        assert_eq!(a.total_ns(Layer::Select), 600);
        assert_eq!(a.count(Layer::Select), 4);
        assert_eq!(a.self_ns(Layer::RunUntil), 400);
    }

    #[test]
    fn a_clock_overlap_never_underflows() {
        let mut s = Spans::default();
        s.add(Layer::RunUntil, 10);
        s.add(Layer::Select, 11);
        assert_eq!(s.self_ns(Layer::RunUntil), 0);
        assert_eq!(s.self_share(Layer::RunUntil), 0.0);
    }
}
