//! Standard pipeline factories.
//!
//! The engine builds a sensor's pipeline from its `Hello` through a
//! [`PipelineFactory`]; this module
//! provides the stock one: a factory closed over a base [`WiTrackConfig`]
//! that serves either backend, refusing sensors whose announced stream
//! shape disagrees with that configuration.

use crate::engine::PipelineFactory;
use crate::wire::{Hello, PipelineKind};
use std::sync::Arc;
use witrack_core::{FramePipeline, WiTrack, WiTrackConfig};
use witrack_mtt::{MttConfig, MultiWiTrack};

/// A factory serving both pipeline kinds from one base configuration.
///
/// The `Hello` must announce exactly the base config's sweep shape
/// (samples per sweep, sweeps per frame) and the T-array's three receive
/// antennas; anything else is a configuration mismatch and the session is
/// rejected.
pub fn witrack_factory(base: WiTrackConfig) -> Arc<PipelineFactory> {
    Arc::new(move |hello: &Hello| {
        if hello.samples_per_sweep as usize != base.sweep.samples_per_sweep() {
            return Err(format!(
                "samples per sweep {} != configured {}",
                hello.samples_per_sweep,
                base.sweep.samples_per_sweep()
            ));
        }
        if hello.sweeps_per_frame as usize != base.sweep.sweeps_per_frame {
            return Err(format!(
                "sweeps per frame {} != configured {}",
                hello.sweeps_per_frame, base.sweep.sweeps_per_frame
            ));
        }
        if hello.n_rx != 3 {
            return Err(format!(
                "T-array serves 3 receive antennas, hello says {}",
                hello.n_rx
            ));
        }
        match hello.kind {
            PipelineKind::SingleTarget => WiTrack::new(base)
                .map(|p| Box::new(p) as Box<dyn FramePipeline>)
                .map_err(|e| e.to_string()),
            PipelineKind::MultiTarget => MultiWiTrack::new(MttConfig::with_base(base))
                .map(|p| Box::new(p) as Box<dyn FramePipeline>)
                .map_err(|e| e.to_string()),
        }
    })
}

/// The [`Hello`] matching `witrack_factory(base)` for `sensor_id`.
pub fn hello_for(base: &WiTrackConfig, sensor_id: u32, kind: PipelineKind) -> Hello {
    Hello {
        sensor_id,
        kind,
        n_rx: 3,
        samples_per_sweep: base.sweep.samples_per_sweep() as u32,
        sweeps_per_frame: base.sweep.sweeps_per_frame as u32,
        quantized: false,
    }
}

/// [`hello_for`] with [`Hello::quantized`] set, as current senders send it.
pub fn hello_quantized_for(base: &WiTrackConfig, sensor_id: u32, kind: PipelineKind) -> Hello {
    Hello {
        quantized: true,
        ..hello_for(base, sensor_id, kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_both_kinds_and_rejects_mismatch() {
        let base = WiTrackConfig::witrack_default();
        let f = witrack_factory(base);
        for kind in [PipelineKind::SingleTarget, PipelineKind::MultiTarget] {
            let p = f(&hello_for(&base, 1, kind)).expect("matching hello builds");
            assert_eq!(p.num_rx(), 3);
        }
        let mut bad = hello_for(&base, 1, PipelineKind::SingleTarget);
        bad.samples_per_sweep += 1;
        assert!(f(&bad).is_err());
        let mut bad = hello_for(&base, 1, PipelineKind::SingleTarget);
        bad.n_rx = 4;
        assert!(f(&bad).is_err());
    }
}
