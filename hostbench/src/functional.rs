//! `functional`: the functional simulators, one pass of each part per
//! iteration: a BERT-base prefill forward through `TronFunctional`
//! ([`prefill`]), a 2-layer GCN forward through `GhostFunctional` on a
//! power-law graph ([`gnn`]), and a 16 + 64-token int8 decode on a
//! `KvCache` ([`decode`]). It exercises the `photonics`, `tensor`,
//! `ghost` and `nn` compute paths, and no cost model.

use crate::harness::{Harness, Runs};
use crate::{decode, gnn, prefill};

/// Analog matmul work of one part per iteration, from its traced
/// counters, and its replayed busy time.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalogMatmul {
    calls: i64,
    tiles: i64,
    macs: i64,
    reuse_hits: i64,
    busy_s: f64,
}

impl AnalogMatmul {
    /// Part `part`'s counts on the first traced iteration, with `busy_s`.
    pub fn of(runs: &Runs, part: usize, busy_s: f64) -> AnalogMatmul {
        let c = &runs.traced[0].1[part];
        AnalogMatmul {
            calls: c.counter("analog/matmuls"),
            tiles: c.counter("analog/tiles"),
            macs: c.counter("int8/analog_macs"),
            reuse_hits: c.counter("analog/scratch_reuse_hits"),
            busy_s,
        }
    }

    /// Records the `photonics.analog_matmul` metrics of an iteration
    /// from its parts' shares.
    fn record(h: &mut Harness, parts: &[AnalogMatmul]) {
        let sum = parts
            .iter()
            .fold(AnalogMatmul::default(), |a, p| AnalogMatmul {
                calls: a.calls + p.calls,
                tiles: a.tiles + p.tiles,
                macs: a.macs + p.macs,
                reuse_hits: a.reuse_hits + p.reuse_hits,
                busy_s: a.busy_s + p.busy_s,
            });
        h.layer("photonics.analog_matmul.calls", sum.calls as f64);
        h.layer("photonics.analog_matmul.tiles", sum.tiles as f64);
        h.layer("photonics.analog_matmul.macs", sum.macs as f64);
        h.layer("photonics.analog_matmul.busy_s", sum.busy_s);
        // Each matmul packs two operands into the engine's scratch.
        h.layer(
            "photonics.scratch_reuse_ratio",
            sum.reuse_hits as f64 / (2 * sum.calls).max(1) as f64,
        );
    }
}

/// Runs the workload.
///
/// # Errors
///
/// Fails when a part cannot be built.
pub fn run(h: &mut Harness) -> Result<(), String> {
    let prefill = prefill::prepare(h)?;
    let gnn = gnn::prepare(h)?;
    let decode = decode::prepare(h)?;
    let decoder = decode.decoder()?;
    let runs = h.iterate(&mut [
        ("llm_prefill", &mut |steps| prefill.pass(steps)),
        ("gnn_powerlaw", &mut |steps| gnn.pass(steps)),
        ("llm_decode", &mut |steps| decode.pass(&decoder, steps)),
    ]);
    if h.tracing() {
        let analog = [prefill.layers(h, &runs, 0), gnn.layers(h, &runs, 1)];
        AnalogMatmul::record(h, &analog);
        decode.layers(h, &runs, 2);
    }
    Ok(())
}
