//! Short replays of every workload: tracing must not change what the server
//! computes or counts, and verification must catch a corrupted response.

use a3_perfbench::harness::{Clock, Replay};
use a3_perfbench::report::end_to_end;
use a3_perfbench::trace::Recorder;
use a3_perfbench::{decode_stream, long_context, tenant_qa};

fn tenant_qa_inputs() -> tenant_qa::Inputs {
    let scale = tenant_qa::Scale {
        seconds: 0.2,
        session_divisor: 10,
        rate_per_s: tenant_qa::RATE_PER_S,
    };
    tenant_qa::inputs(7, scale)
}

/// Untraced and traced replays of one workload.
fn both(replay: impl Fn(bool) -> Replay) -> (Replay, Replay) {
    (replay(false), replay(true))
}

fn recorder(traced: bool) -> Option<std::sync::Arc<Recorder>> {
    traced.then(|| Recorder::new(1 << 16))
}

fn assert_same(plain: &Replay, traced: &Replay) {
    assert!(!plain.outputs.is_empty());
    assert_eq!(plain.outputs.len(), traced.outputs.len());
    for (a, b) in plain.outputs.iter().zip(&traced.outputs) {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b));
    }
    assert_eq!(plain.stats, traced.stats);
    assert_eq!(plain.cache, traced.cache);
    assert_eq!(plain.admission, traced.admission);
    assert_eq!(plain.attempted, traced.attempted);
    assert_eq!(plain.throttled, traced.throttled);
    assert!(traced.spans.iter().any(|s| s.name.starts_with("backend.")));
    assert!(plain.spans.is_empty());
}

#[test]
fn tracing_changes_no_output_or_counter() {
    let inp = tenant_qa_inputs();
    let (plain, traced) = both(|t| {
        tenant_qa::replay(&inp, recorder(t), Clock::Logical, 1).expect("tenant-qa replays")
    });
    assert_same(&plain, &traced);
    assert!(
        plain.throttled > 0,
        "the Background tenant is over its limit"
    );

    let inp = long_context::inputs(7, 16);
    let (plain, traced) =
        both(|t| long_context::replay(&inp, recorder(t), 0.0, 2, 1).expect("long-context replays"));
    assert_same(&plain, &traced);

    let inp = decode_stream::inputs(7, 8).expect("decode-stream inputs");
    let (plain, traced) =
        both(|t| decode_stream::replay(&inp, recorder(t), 0.0, 2).expect("decode-stream replays"));
    assert_same(&plain, &traced);
    let [_, _, updates] = traced.cache;
    let steps = plain.outputs.len() as u64;
    assert_eq!(
        updates,
        steps + steps / 16,
        "every append and update refreshes the cache"
    );
}

fn ok_frac(r: &Replay) -> f64 {
    let outcome = end_to_end(r);
    let m = outcome
        .metrics
        .iter()
        .find(|m| m.name == "ok_frac")
        .expect("ok_frac is reported");
    m.value
}

#[test]
fn a_corrupted_response_lowers_ok_frac() {
    let inp = tenant_qa_inputs();
    let mut r = tenant_qa::replay(&inp, None, Clock::Logical, 1).expect("tenant-qa replays");
    assert_eq!(ok_frac(&r), 1.0);
    let victim = r
        .outputs
        .iter()
        .position(|o| !o.is_empty())
        .expect("an answered request");
    let answer = r.outputs[victim].clone();
    // A negated answer, and an all-zero one, whose relative error is
    // exactly 1.0.
    for corrupt in [|x: &mut f32| *x = -*x, |x: &mut f32| *x = 0.0] {
        r.outputs[victim].clone_from(&answer);
        r.outputs[victim].iter_mut().for_each(corrupt);
        r.check = Default::default();
        tenant_qa::verify(&inp, &mut r);
        assert!(ok_frac(&r) < 1.0);
    }

    let inp = long_context::inputs(7, 16);
    let mut r = long_context::replay(&inp, None, 0.0, 1, 1).expect("long-context replays");
    assert_eq!(ok_frac(&r), 1.0);
    r.outputs[3].pop();
    r.check = Default::default();
    long_context::verify(&inp, &mut r);
    assert!(ok_frac(&r) < 1.0);

    let inp = decode_stream::inputs(7, 8).expect("decode-stream inputs");
    let mut r = decode_stream::replay(&inp, None, 0.0, 1).expect("decode-stream replays");
    assert_eq!(ok_frac(&r), 1.0);
    r.outputs[5][0] = f32::NAN;
    r.check = Default::default();
    decode_stream::verify(&inp, &mut r).expect("mutations fit");
    assert!(ok_frac(&r) < 1.0);
}
