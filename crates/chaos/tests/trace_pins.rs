//! Per-trial scheduler pins: for a fixed set of curated trials, the oracle
//! verdict line and an FNV-1a digest of the whole trace ring are pinned.
//! The timing wheel's `(time, seq)` total order decides every tie between
//! simultaneous events, so any change to scheduler order shows up here as a
//! changed constant. The constants were computed on the timing wheel and on
//! the reference binary heap, and were equal on both.

use san_chaos::{run_trial_traced, Campaign};

fn load(name: &str) -> Campaign {
    let path = format!("{}/campaigns/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Campaign::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// FNV-1a over every trace line, newline-terminated, oldest first.
fn trace_digest(scan: &san_telemetry::TraceScan) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for ev in scan.events() {
        for b in ev.to_line().bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Run each pinned trial of `campaign` and compare verdict and digest.
fn assert_pinned(campaign: &str, pins: &[(&str, u64)]) {
    let c = load(campaign);
    for (i, &(verdict, digest)) in pins.iter().enumerate() {
        let (out, scan) = run_trial_traced(&c.sample(i as u32));
        assert_eq!(
            out.verdict_line(),
            verdict,
            "{campaign}[{i}]: verdict changed"
        );
        assert_eq!(
            trace_digest(&scan),
            digest,
            "{campaign}[{i}]: trace ring changed (scheduler order moved?)"
        );
    }
}

/// Fault-free baseline: pure protocol + fabric timing.
#[test]
fn smoke_trials_are_pinned() {
    assert_pinned(
        "smoke",
        &[
            (
                "smoke[000] seed=0x25fe4bc4abf1a71c delivered=60/60 resets=0 bumps=0 failed=0 t=4004250ns PASS",
                0x464e_0142_02ec_556b,
            ),
            (
                "smoke[001] seed=0x7bee0a001c15b555 delivered=60/60 resets=0 bumps=0 failed=0 t=9023550ns PASS",
                0x3f7d_e475_153a_e88b,
            ),
            (
                "smoke[002] seed=0x5d2cdaaa036fde81 delivered=60/60 resets=0 bumps=0 failed=0 t=4009100ns PASS",
                0x019b_b45e_8756_4e5e,
            ),
            (
                "smoke[003] seed=0x2b39a10ea5e5dd7f delivered=60/60 resets=0 bumps=0 failed=0 t=4047534ns PASS",
                0xec9e_74e4_14db_64f3,
            ),
        ],
    );
}

/// Wire faults exercise the RNG-coupled drop/corrupt paths and path resets.
#[test]
fn transient_trials_are_pinned() {
    assert_pinned(
        "transient",
        &[
            (
                "transient[000] seed=0x21b2622ba36c6044 delivered=360/360 resets=0 bumps=0 failed=0 t=19117050ns PASS",
                0xec3c_7294_a1c7_8b9c,
            ),
            (
                "transient[001] seed=0x75d5b26c9c6edcc1 delivered=360/360 resets=0 bumps=0 failed=0 t=9093216ns PASS",
                0x8f1e_1f2a_2f63_98cc,
            ),
        ],
    );
}

/// Permanent failures exercise kill/remap timers and far-future timeouts,
/// i.e. the overflow tier of the wheel, not just the near horizon. Both
/// trials overflow the ring, and the 8,192 events it keeps are the same
/// in both, so their digests coincide.
#[test]
fn permanent_trials_are_pinned() {
    assert_pinned(
        "permanent",
        &[
            (
                "permanent[000] seed=0x1999a5839bba5dc8 delivered=1000/1000 resets=0 bumps=0 failed=0 t=14011038ns PASS",
                0xc8fc_39c7_a7b2_a12b,
            ),
            (
                "permanent[001] seed=0xa85dfe746202c3a5 delivered=1000/1000 resets=0 bumps=0 failed=0 t=14173414ns PASS",
                0xc8fc_39c7_a7b2_a12b,
            ),
        ],
    );
}
