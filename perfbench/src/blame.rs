//! Groups the critical-path blame profile (per `Stage` label) into the
//! six layers the benchmark reports.

use lauberhorn_sim::critpath::Segment;
use lauberhorn_sim::{BlameProfile, Stage};

/// Where a critical-path segment's simulated time was spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// NIC pipeline work: TRYAGAIN, RETIRE, response collection and
    /// transmission.
    Nic,
    /// Coherence-fabric transfer: the CONTROL-line fill.
    Fabric,
    /// Software stack work on a server core outside the handler: the
    /// kernel receive path, the bypass poll loop, Lauberhorn dispatch,
    /// copies and unmarshalling.
    Os,
    /// The application handler.
    App,
    /// Waiting: queued behind other work, parked, or stalled by
    /// recovery, retransmission or shed-backoff.
    Queue,
    /// Root time no stage span covers.
    Gap,
}

impl Layer {
    /// Every layer, in declaration order, so `layer as usize` indexes it.
    pub const ALL: [Layer; 6] = [
        Layer::Nic,
        Layer::Fabric,
        Layer::Os,
        Layer::App,
        Layer::Queue,
        Layer::Gap,
    ];

    /// Metric-name label.
    pub fn label(self) -> &'static str {
        match self {
            Layer::Nic => "nic",
            Layer::Fabric => "fabric",
            Layer::Os => "os",
            Layer::App => "app",
            Layer::Queue => "queue",
            Layer::Gap => "gap",
        }
    }
}

/// Every stage. The match in [`layer_of`] has no wildcard, so a new
/// stage does not compile until it is placed in a layer; list it here
/// too, or [`group_permille`] rejects its label.
pub const STAGES: [Stage; 24] = [
    Stage::Request,
    Stage::Irq,
    Stage::Softirq,
    Stage::Protocol,
    Stage::Wakeup,
    Stage::ContextSwitch,
    Stage::Syscall,
    Stage::Copy,
    Stage::Unmarshal,
    Stage::SendMsg,
    Stage::Poll,
    Stage::ControlFill,
    Stage::Park,
    Stage::TryAgain,
    Stage::Retire,
    Stage::KernelDispatch,
    Stage::FastDispatch,
    Stage::Collect,
    Stage::Handler,
    Stage::Response,
    Stage::Queue,
    Stage::Recovery,
    Stage::RetryWait,
    Stage::Backoff,
];

/// The layer a stage's critical-path time is charged to.
pub fn layer_of(stage: Stage) -> Layer {
    match stage {
        // The root never wins a segment; its uncovered time is the gap.
        Stage::Request => Layer::Gap,
        Stage::TryAgain | Stage::Retire | Stage::Collect | Stage::Response => Layer::Nic,
        Stage::ControlFill => Layer::Fabric,
        Stage::Irq
        | Stage::Softirq
        | Stage::Protocol
        | Stage::Wakeup
        | Stage::ContextSwitch
        | Stage::Syscall
        | Stage::Copy
        | Stage::Unmarshal
        | Stage::SendMsg
        | Stage::Poll
        | Stage::KernelDispatch
        | Stage::FastDispatch => Layer::Os,
        Stage::Handler => Layer::App,
        Stage::Park | Stage::Queue | Stage::Recovery | Stage::RetryWait | Stage::Backoff => {
            Layer::Queue
        }
    }
}

/// The layer of a blame-profile label: a stage label or the gap label.
pub fn layer_of_label(label: &str) -> Option<Layer> {
    if label == Segment::GAP_LABEL {
        return Some(Layer::Gap);
    }
    STAGES
        .iter()
        .find(|s| s.label() == label)
        .map(|&s| layer_of(s))
}

/// Per-layer share of the profile's attributed time, in permille,
/// [`Layer::ALL`] order. `None` when nothing was attributed; an error
/// names a label that maps to no layer.
pub fn group_permille(profile: &BlameProfile) -> Result<Option<[f64; 6]>, String> {
    let mut ps = [0u64; 6];
    for (label, &t) in &profile.by_stage_ps {
        let layer = layer_of_label(label)
            .ok_or_else(|| format!("blame label `{label}` maps to no layer"))?;
        ps[layer as usize] += t;
    }
    let total: u64 = ps.iter().sum();
    if total == 0 {
        return Ok(None);
    }
    Ok(Some(ps.map(|p| p as f64 * 1000.0 / total as f64)))
}
