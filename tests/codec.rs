//! The binary codec's two routes must be indistinguishable:
//!
//! * **Byte identity** — the direct `bin_encode` path writes exactly the
//!   bytes the `Value` route writes, for every store payload kind (TRIPS
//!   block traces, RISC streams, phase artifacts, live-point sets of both
//!   cores) and for every signature input (the compiled TRIPS and RISC
//!   programs, the IR functions and entry, the phase plan). Store keys,
//!   code signatures and `plan_sig` hash those bytes, so they cannot move.
//! * **Decode equality** — the direct `bin_decode` path reads back the
//!   same value the `Value` route reads.
//! * **Damage agreement** — on truncated prefixes and single-bit flips of
//!   random nested std shapes and derived structs/enums, both routes
//!   either read the same value or both report an error; neither panics.

use std::collections::BTreeMap;
use std::path::PathBuf;

use proptest::prelude::*;
use serde::{bin, Deserialize, DeserializeOwned, Serialize};
use trips::compiler::CompileOptions;
use trips::engine::store::{
    LivePointSet, LivePointStates, KIND_BBV, KIND_BLOCK_TRACE, KIND_LIVEPOINT, KIND_RISC_TRACE,
};
use trips::engine::{PhaseK, PhaseSpec, ReplayMode, Session, TraceStore};
use trips::isa::TraceLog;
use trips::phase::PhaseArtifact;
use trips::risc::RiscTrace;
use trips::workloads::{by_name, Scale};

const MEM: usize = 1 << 20;
/// Container header length (magic, versions, kind, key, hash, length).
const HEADER_LEN: usize = 40;

/// The `Value` route's encoding: the oracle for the direct path.
fn oracle_bytes<T: Serialize + ?Sized>(t: &T) -> Vec<u8> {
    let mut out = Vec::new();
    bin::write_value(&serde::to_value(t), &mut out);
    out
}

/// The `Value` route's decoding.
fn oracle_decode<T: DeserializeOwned>(bytes: &[u8]) -> Result<T, serde::Error> {
    serde::from_value(&bin::read_value(bytes)?)
}

/// Both routes encode `t` to the same bytes and decode those bytes to
/// values that encode back to them (equal in every serialized field).
fn assert_routes_agree<T: Serialize + DeserializeOwned>(what: &str, t: &T) {
    let bytes = bin::to_bytes(t);
    assert!(
        bytes == oracle_bytes(t),
        "{what}: direct encoding differs from the Value route"
    );
    let direct: T = bin::from_bytes(&bytes).unwrap_or_else(|e| panic!("{what}: direct: {e}"));
    let oracle: T = oracle_decode(&bytes).unwrap_or_else(|e| panic!("{what}: oracle: {e}"));
    assert!(
        bin::to_bytes(&direct) == bytes,
        "{what}: direct decode lost data"
    );
    assert!(
        bin::to_bytes(&oracle) == bytes,
        "{what}: oracle decode lost data"
    );
}

fn tiny_spec(interval: u64) -> PhaseSpec {
    PhaseSpec {
        interval,
        warmup: 4,
        k: PhaseK::Auto,
        floor: 0,
        rep_span: 4,
        boundary: 1,
        tail: 1,
    }
}

#[test]
fn store_payloads_and_signature_inputs_agree_on_both_routes() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("codec-routes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let session = Session::with_store(TraceStore::open(&dir).unwrap());
    session.set_live_points(2);
    let w = by_name("vadd").unwrap();

    // TRIPS side: block trace, phase artifact, TRIPS live-point set.
    let o1 = CompileOptions::o1();
    let compiled = session.compiled(&w, Scale::Test, &o1, false).unwrap();
    assert_routes_agree("TRIPS program", &compiled.trips);
    assert_routes_agree("TRIPS IR funcs", &compiled.opt_ir.funcs);
    assert_routes_agree("TRIPS IR entry", &compiled.opt_ir.entry);
    let plan = session
        .trips_phase_plan(&w, Scale::Test, &o1, false, MEM, 1_000_000, &tiny_spec(8))
        .unwrap();
    assert!(!plan.covers_everything(), "the plan must sample");
    assert_routes_agree("TRIPS phase plan", &*plan);
    session
        .replayed(
            &w,
            Scale::Test,
            &o1,
            false,
            &trips::sim::TripsConfig::prototype(),
            MEM,
            1_000_000,
            &ReplayMode::Phased((*plan).clone()),
        )
        .unwrap();

    // RISC side: event stream, phase artifact, OoO live-point set.
    let gcc = CompileOptions::gcc_ref();
    let art = session.risc_program(&w, Scale::Test, &gcc).unwrap();
    assert_routes_agree("RISC program", &art.program);
    assert_routes_agree("RISC IR funcs", &art.ir.funcs);
    assert_routes_agree("RISC IR entry", &art.ir.entry);
    let plan = session
        .ooo_phase_plan(&w, Scale::Test, &gcc, MEM, 400_000_000, &tiny_spec(64))
        .unwrap();
    assert!(!plan.covers_everything(), "the plan must sample");
    assert_routes_agree("OoO phase plan", &*plan);
    session
        .ooo_replayed(
            &w,
            Scale::Test,
            &gcc,
            &trips::ooo::core2(),
            MEM,
            400_000_000,
            &ReplayMode::Phased((*plan).clone()),
        )
        .unwrap();

    // Every container the session persisted, read back off the disk.
    let mut kinds = BTreeMap::new();
    let (mut trips_sets, mut ooo_sets) = (0, 0);
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "trace") {
            continue;
        }
        let bytes = std::fs::read(&path).unwrap();
        let kind = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        let payload = &bytes[HEADER_LEN..];
        let what = format!("{} (kind {kind})", path.display());
        match kind {
            KIND_BLOCK_TRACE => {
                let log: TraceLog = bin::from_bytes(payload).unwrap();
                assert_routes_agree(&what, &log);
            }
            KIND_RISC_TRACE => {
                let trace: RiscTrace = bin::from_bytes(payload).unwrap();
                assert_routes_agree(&what, &trace);
            }
            KIND_BBV => {
                let art: PhaseArtifact = bin::from_bytes(payload).unwrap();
                assert_routes_agree(&what, &art);
            }
            KIND_LIVEPOINT => {
                let set: LivePointSet = bin::from_bytes(payload).unwrap();
                match &set.states {
                    LivePointStates::Trips(_) => trips_sets += 1,
                    LivePointStates::Ooo(_) => ooo_sets += 1,
                }
                assert_routes_agree(&what, &set);
            }
            other => panic!("unexpected container kind {other}"),
        }
        *kinds.entry(kind).or_insert(0) += 1;
    }
    assert_eq!(kinds.len(), 4, "every container kind persisted: {kinds:?}");
    assert_eq!((trips_sets, ooo_sets), (1, 1));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A newtype struct (encoded transparently).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Meters(u32);

/// A tuple struct (encoded as a sequence).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Pair(u8, String);

/// A unit struct (accepts any node on decode, like the `Value` route).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Marker;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Shape {
    Dot,
    Line(u32, i16),
    Poly { sides: Vec<u8>, closed: bool },
    Tagged(Option<String>),
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Record {
    id: u64,
    delta: i32,
    label: String,
    shapes: Vec<Shape>,
    pairs: Vec<(u16, Option<i64>)>,
    grid: [Vec<bool>; 2],
    wide: u128,
    ratio: f64,
    small: f32,
    // A map keeps the `Value` route, nested inside direct-route types.
    index: BTreeMap<String, Vec<u32>>,
    meters: Meters,
    pair: Pair,
    marker: Marker,
    unit: (),
}

/// Short strings with multi-byte characters, so bit flips can break UTF-8.
fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u32>(), 0..5).prop_map(|cs| {
        cs.into_iter()
            .filter_map(|c| char::from_u32(c % 0x900))
            .collect()
    })
}

fn shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::Dot),
        (any::<u32>(), any::<i16>()).prop_map(|(a, b)| Shape::Line(a, b)),
        (prop::collection::vec(any::<u8>(), 0..4), any::<bool>())
            .prop_map(|(sides, closed)| Shape::Poly { sides, closed }),
        prop::option::of(text()).prop_map(Shape::Tagged),
    ]
}

fn record() -> impl Strategy<Value = Record> {
    (
        (
            any::<u64>(),
            any::<i32>(),
            text(),
            prop::collection::vec(shape(), 0..4),
            prop::collection::vec((any::<u16>(), prop::option::of(any::<i64>())), 0..4),
            (
                prop::collection::vec(any::<bool>(), 0..3),
                prop::collection::vec(any::<bool>(), 0..3),
            ),
        ),
        (
            (any::<u64>(), any::<u64>()),
            any::<u64>(),
            any::<u32>(),
            prop::collection::vec((text(), prop::collection::vec(any::<u32>(), 0..3)), 0..3),
            (any::<u32>(), any::<u8>(), text()),
        ),
    )
        .prop_map(
            |(
                (id, delta, label, shapes, pairs, (g0, g1)),
                ((hi, lo), ratio_bits, small_bits, index, (meters, p0, p1)),
            )| Record {
                id,
                delta,
                label,
                shapes,
                pairs,
                grid: [g0, g1],
                wide: u128::from(hi) << 64 | u128::from(lo),
                ratio: f64::from_bits(ratio_bits),
                small: f32::from_bits(small_bits),
                index: index.into_iter().collect(),
                meters: Meters(meters),
                pair: Pair(p0, p1),
                marker: Marker,
                unit: (),
            },
        )
}

type Nested = (
    Vec<Option<(u32, String)>>,
    Option<Vec<[i64; 2]>>,
    Vec<Vec<u8>>,
);

fn nested() -> impl Strategy<Value = Nested> {
    (
        prop::collection::vec(prop::option::of((any::<u32>(), text())), 0..4),
        prop::option::of(prop::collection::vec(
            (any::<i64>(), any::<i64>()).prop_map(|(a, b)| [a, b]),
            0..3,
        )),
        prop::collection::vec(prop::collection::vec(any::<u8>(), 0..4), 0..3),
    )
}

/// Both routes read `bytes` the same way: the same value, or an error.
fn agree_on<T: Serialize + DeserializeOwned>(bytes: &[u8]) -> Result<(), TestCaseError> {
    match (bin::from_bytes::<T>(bytes), oracle_decode::<T>(bytes)) {
        (Ok(d), Ok(o)) => prop_assert!(bin::to_bytes(&d) == bin::to_bytes(&o), "values differ"),
        (Err(_), Err(_)) => {}
        (d, o) => prop_assert!(
            false,
            "routes disagree on {bytes:02x?}: direct ok={} oracle ok={}",
            d.is_ok(),
            o.is_ok()
        ),
    }
    Ok(())
}

/// Encodings match, and every truncated prefix and every single-bit flip
/// of the encoding reads the same on both routes.
fn agree_under_damage<T: Serialize + DeserializeOwned>(t: &T) -> Result<(), TestCaseError> {
    let bytes = bin::to_bytes(t);
    prop_assert!(bytes == oracle_bytes(t), "encodings differ");
    prop_assert!(
        bin::to_bytes(&bin::from_bytes::<T>(&bytes).unwrap()) == bytes,
        "round trip"
    );
    for n in 0..bytes.len() {
        agree_on::<T>(&bytes[..n])?;
    }
    let mut flipped = bytes.clone();
    for bit in 0..bytes.len() * 8 {
        flipped[bit / 8] ^= 1 << (bit % 8);
        agree_on::<T>(&flipped)?;
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn derived_types_agree_on_both_routes_under_damage(r in record()) {
        agree_under_damage(&r)?;
    }

    #[test]
    fn nested_std_shapes_agree_on_both_routes_under_damage(n in nested()) {
        agree_under_damage(&n)?;
    }

    #[test]
    fn derived_enums_agree_on_both_routes_under_damage(s in prop::collection::vec(shape(), 0..6)) {
        agree_under_damage(&s)?;
    }
}
