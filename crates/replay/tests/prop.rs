//! Property tests for the `.agtrace` codec layer, driven by a seeded
//! XorShift64 generator (no external property-testing crate — the
//! workspace is offline by design).
//!
//! Each test runs thousands of randomized cases mixed with deliberate
//! boundary values (`0`, `u64::MAX`, varint byte-width edges), so a
//! regression in varint, zigzag, or record delta coding fails loudly and
//! reproducibly: every assertion carries the seed that produced it.

use agave_replay::codec::{decode_records, get_varint, put_varint, unzigzag, zigzag, CoderState};
use agave_replay::{TraceBuffer, TraceWriter};
use agave_trace::{
    CounterSnapshot, NameDirectory, NameId, Pid, RefKind, Reference, ReferenceSink, SharedSink,
    Tid, Tracer,
};
use std::cell::RefCell;
use std::rc::Rc;

/// The classic xorshift64 generator — deterministic, seedable, and more
/// than random enough to exercise codec branches.
struct XorShift64(u64);

impl XorShift64 {
    fn new(seed: u64) -> Self {
        XorShift64(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// A u64 with a uniformly random *bit width* — small values are as
    /// likely as huge ones, so every varint length gets exercised.
    fn next_spread(&mut self) -> u64 {
        let bits = self.next() % 65;
        if bits == 0 {
            0
        } else {
            self.next() >> (64 - bits)
        }
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

/// Hand-picked values sitting on every varint length boundary plus the
/// u64 extremes the zigzag-delta path must round-trip.
const BOUNDARY: &[u64] = &[
    0,
    1,
    0x7f,
    0x80,
    0x3fff,
    0x4000,
    0x001f_ffff,
    0x0020_0000,
    u32::MAX as u64,
    u32::MAX as u64 + 1,
    i64::MAX as u64,
    i64::MAX as u64 + 1,
    u64::MAX - 1,
    u64::MAX,
];

#[test]
fn varint_round_trips_random_and_boundary_values() {
    let mut rng = XorShift64::new(0x5eed_0001);
    let mut values: Vec<u64> = BOUNDARY.to_vec();
    values.extend((0..10_000).map(|_| rng.next_spread()));

    let mut buf = Vec::new();
    for &v in &values {
        put_varint(&mut buf, v);
    }
    let mut pos = 0;
    for &v in &values {
        assert_eq!(get_varint(&buf, &mut pos), Some(v), "value {v:#x}");
    }
    assert_eq!(
        pos,
        buf.len(),
        "decoder must consume exactly what was written"
    );
}

#[test]
fn varint_decode_never_reads_past_truncation() {
    let mut rng = XorShift64::new(0x5eed_0002);
    for _ in 0..2_000 {
        let v = rng.next_spread();
        let mut buf = Vec::new();
        put_varint(&mut buf, v);
        // Every proper prefix must decode to None without panicking.
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert_eq!(
                get_varint(&buf[..cut], &mut pos),
                None,
                "prefix of len {cut} for {v:#x} must be rejected"
            );
        }
    }
}

#[test]
fn zigzag_round_trips_random_and_boundary_values() {
    let mut rng = XorShift64::new(0x5eed_0003);
    for &v in BOUNDARY {
        // Every u64 is some zigzag output; unzigzag∘zigzag must be id.
        assert_eq!(zigzag(unzigzag(v)), v, "u64 {v:#x}");
    }
    for v in [0i64, 1, -1, i64::MAX, i64::MIN] {
        assert_eq!(unzigzag(zigzag(v)), v, "i64 {v}");
    }
    for _ in 0..10_000 {
        let v = rng.next_spread() as i64;
        assert_eq!(unzigzag(zigzag(v)), v, "i64 {v}");
    }
}

/// Generates a stream shaped like real tracer output — runs of one
/// `(pid, tid, region)` key, frequent exact-continuation addresses —
/// salted with adversarial jumps to and from `u64` boundary addresses.
fn random_stream(rng: &mut XorShift64, len: usize) -> Vec<Reference> {
    let mut refs = Vec::with_capacity(len);
    let (mut pid, mut tid, mut region) = (1u32, 1u32, 0u32);
    let mut next_addr = 0x4000_0000u64;
    for _ in 0..len {
        if rng.chance(15) {
            pid = (rng.next() % 40) as u32;
            tid = (rng.next() % 200) as u32;
            region = (rng.next() % 30) as u32;
        }
        let addr = if rng.chance(60) {
            next_addr
        } else if rng.chance(10) {
            BOUNDARY[(rng.next() as usize) % BOUNDARY.len()]
        } else {
            rng.next_spread()
        };
        let words = if rng.chance(40) {
            1
        } else if rng.chance(5) {
            rng.next_spread()
        } else {
            1 + rng.next() % 64
        };
        let kind = match rng.next() % 3 {
            0 => RefKind::InstrFetch,
            1 => RefKind::DataRead,
            _ => RefKind::DataWrite,
        };
        next_addr = addr.wrapping_add(words.wrapping_mul(4));
        refs.push(Reference {
            pid: Pid::from_raw(pid),
            tid: Tid::from_raw(tid),
            region: NameId::from_raw(region),
            kind,
            addr,
            words,
        });
    }
    refs
}

#[test]
fn record_coding_round_trips_randomized_streams() {
    for seed in 1..=25u64 {
        let mut rng = XorShift64::new(0x5eed_1000 + seed);
        let refs = random_stream(&mut rng, 2_000);
        let mut buf = Vec::new();
        let mut enc = CoderState::new();
        for r in &refs {
            enc.encode(r, &mut buf);
        }
        let mut dec = CoderState::new();
        let mut pos = 0;
        for (i, r) in refs.iter().enumerate() {
            assert_eq!(
                dec.decode(&buf, &mut pos).as_ref(),
                Some(r),
                "seed {seed}, record {i}"
            );
        }
        assert_eq!(pos, buf.len(), "seed {seed}: trailing bytes after decode");
    }
}

/// Scalar reference decode: `count` records via the old byte-at-a-time
/// [`CoderState::decode`] path, with totals gathered per record — the
/// semantics the branchless [`decode_records`] path must reproduce.
#[allow(clippy::type_complexity)]
fn scalar_decode(payload: &[u8], count: usize) -> Option<(Vec<Reference>, usize, u64, u64, u64)> {
    let mut dec = CoderState::new();
    let mut pos = 0;
    let mut out = Vec::new();
    let (mut words, mut max_tid, mut max_region) = (0u64, 0u64, 0u64);
    for _ in 0..count {
        let r = dec.decode(payload, &mut pos)?;
        words = words.wrapping_add(r.words);
        max_tid = max_tid.max(u64::from(r.tid.as_u32()));
        max_region = max_region.max(r.region.index() as u64);
        out.push(r);
    }
    Some((out, pos, words, max_tid, max_region))
}

#[test]
fn branchless_decoder_matches_scalar_on_random_streams() {
    for seed in 1..=25u64 {
        let mut rng = XorShift64::new(0x5eed_3000 + seed);
        let refs = random_stream(&mut rng, 2_000);
        let mut buf = Vec::new();
        let mut enc = CoderState::new();
        for r in &refs {
            enc.encode(r, &mut buf);
        }
        let (scalar, scalar_pos, words, max_tid, max_region) =
            scalar_decode(&buf, refs.len()).expect("valid stream must decode");
        let mut fast = Vec::new();
        let mut fast_pos = 0;
        let totals = decode_records(&buf, &mut fast_pos, refs.len() as u64, &mut fast)
            .expect("valid stream must decode on the fast path");
        assert_eq!(fast, scalar, "seed {seed}: records diverge");
        assert_eq!(fast, refs, "seed {seed}: decode does not round-trip");
        assert_eq!(fast_pos, scalar_pos, "seed {seed}: consumed bytes diverge");
        assert_eq!(totals.words, words, "seed {seed}");
        assert_eq!(totals.max_tid, max_tid, "seed {seed}");
        assert_eq!(totals.max_region, max_region, "seed {seed}");
    }
}

#[test]
fn branchless_decoder_rejects_exactly_what_scalar_rejects() {
    // Random single-byte corruption and truncation: the two decoders
    // must agree on accept/reject for every mutated payload (accepted
    // payloads must also yield identical records — corruption the codec
    // cannot detect must at least be deterministic).
    for seed in 1..=10u64 {
        let mut rng = XorShift64::new(0x5eed_4000 + seed);
        let refs = random_stream(&mut rng, 256);
        let mut buf = Vec::new();
        let mut enc = CoderState::new();
        for r in &refs {
            enc.encode(r, &mut buf);
        }
        for _ in 0..200 {
            let mut mutated = buf.clone();
            if rng.chance(50) {
                let i = (rng.next() as usize) % mutated.len();
                mutated[i] ^= (rng.next() % 255 + 1) as u8;
            } else {
                mutated.truncate((rng.next() as usize) % mutated.len());
            }
            let scalar = scalar_decode(&mutated, refs.len());
            let mut fast = Vec::new();
            let mut fast_pos = 0;
            let totals = decode_records(&mutated, &mut fast_pos, refs.len() as u64, &mut fast);
            match (&scalar, &totals) {
                (None, None) => {}
                (Some((records, pos, words, _, _)), Some(t)) => {
                    assert_eq!(&fast, records, "seed {seed}: accepted records diverge");
                    assert_eq!(fast_pos, *pos, "seed {seed}: consumed bytes diverge");
                    assert_eq!(t.words, *words, "seed {seed}: word totals diverge");
                }
                _ => panic!(
                    "seed {seed}: decoders disagree on accept/reject \
                     (scalar={}, fast={})",
                    scalar.is_some(),
                    totals.is_some()
                ),
            }
        }
    }
}

#[test]
fn record_decoding_rejects_every_truncation_point() {
    let mut rng = XorShift64::new(0x5eed_2000);
    let refs = random_stream(&mut rng, 64);
    let mut buf = Vec::new();
    let mut enc = CoderState::new();
    for r in &refs {
        enc.encode(r, &mut buf);
    }
    // Decoding a truncated buffer must stop with None exactly at (or
    // before) the cut — never panic, never fabricate a record beyond it.
    for cut in 0..buf.len() {
        let mut dec = CoderState::new();
        let mut pos = 0;
        let mut decoded = 0usize;
        while pos < cut {
            match dec.decode(&buf[..cut], &mut pos) {
                Some(_) => decoded += 1,
                None => break,
            }
        }
        assert!(
            decoded <= refs.len(),
            "cut {cut}: decoded more records than were encoded"
        );
        assert!(pos <= cut, "cut {cut}: decoder read past the truncation");
    }
}

/// A directory naming every pid, tid and region [`random_stream`] can
/// produce, so a recorded stream passes the replay's footer checks.
fn stream_directory() -> NameDirectory {
    let mut t = Tracer::new();
    let pids: Vec<Pid> = (0..40)
        .map(|p| t.register_process(&format!("proc-{p}")))
        .collect();
    for tid in 0..200 {
        t.register_thread(pids[tid % pids.len()], &format!("thread-{tid}"));
    }
    for region in 0..30 {
        t.intern_region(&format!("region-{region}"));
    }
    t.name_directory()
}

/// Delivers `refs` through a random mix of `on_reference`, `on_batch`
/// (1–5000 blocks at a time) and `append` calls.
fn deliver_randomly(w: &mut TraceWriter<Vec<u8>>, refs: &[Reference], rng: &mut XorShift64) {
    let mut rest = refs;
    while let Some(first) = rest.first() {
        match rng.next() % 3 {
            0 => {
                w.on_reference(first);
                rest = &rest[1..];
            }
            1 => {
                w.append(first);
                rest = &rest[1..];
            }
            _ => {
                let n = 1 + (rng.next() % 5000) as usize;
                let (batch, tail) = rest.split_at(n.min(rest.len()));
                w.on_batch(batch);
                rest = tail;
            }
        }
    }
}

/// The bytes one recording of a stream produces, delivered by `deliver`.
fn recorded_bytes(
    chunk_records: usize,
    directory: &NameDirectory,
    deliver: impl FnOnce(&mut TraceWriter<Vec<u8>>),
) -> Vec<u8> {
    let mut w = TraceWriter::with_chunk_records(Vec::new(), "prop", chunk_records).unwrap();
    deliver(&mut w);
    w.finish(directory, &CounterSnapshot::default()).unwrap();
    w.into_output()
}

#[derive(Default)]
struct Collect(Vec<Reference>);

impl ReferenceSink for Collect {
    fn on_reference(&mut self, r: &Reference) {
        self.0.push(*r);
    }
}

#[test]
fn every_delivery_pattern_records_the_same_decodable_bytes() {
    let directory = stream_directory();
    let mut rng = XorShift64::new(0x5eed_3000);
    // Edge lengths around the writer's 1024-reference hand-off, then
    // random ones.
    let mut lens = vec![0, 1, 1023, 1024, 1025, 4097];
    lens.extend((0..4).map(|_| (rng.next() % 12_000) as usize));
    for len in lens {
        let mut refs = random_stream(&mut rng, len);
        // The writer totals words in a u64; keep spans realistic so the
        // total cannot overflow.
        for r in &mut refs {
            r.words = r.words.min(1 << 24);
        }
        for chunk in [1, 7, 512, 4096] {
            let expected = recorded_bytes(chunk, &directory, |w| {
                for batch in refs.chunks(Tracer::SINK_BATCH) {
                    w.on_batch(batch);
                }
            });
            for pattern in 0..3 {
                let got =
                    recorded_bytes(chunk, &directory, |w| deliver_randomly(w, &refs, &mut rng));
                assert!(
                    got == expected,
                    "len {len}, chunk {chunk}, pattern {pattern}: delivery changed the bytes"
                );
            }
            let sink = Rc::new(RefCell::new(Collect::default()));
            let outcome = TraceBuffer::from_vec(expected)
                .unwrap()
                .replay(&[sink.clone() as SharedSink], 1)
                .unwrap();
            assert_eq!(outcome.records, len as u64, "len {len}, chunk {chunk}");
            assert!(
                sink.borrow().0 == refs,
                "len {len}, chunk {chunk}: decoded stream differs from the input"
            );
        }
    }
}
