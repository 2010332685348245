//! The unified-API contract: every partition strategy — the three
//! incremental detectors *and* the four batch baselines — is driven
//! through one generic function over `dyn Detector` and must agree with
//! the centralized ground-truth oracle on every workload.

use inc_cfd::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use workload::dblp::{self, DblpConfig};
use workload::updates::{self, UpdateMix};

/// Clone an EMP tuple under a fresh tid (id is attribute 0).
fn retid(t: &Tuple, tid: Tid) -> Tuple {
    let mut vals: Vec<Value> = t.values.to_vec();
    vals[0] = Value::int(tid as i64);
    Tuple::new(tid, vals)
}

/// Every strategy over the same `(schema, Σ, D₀)` instance, built through
/// the single `DetectorBuilder` entry point.
fn all_strategies(
    schema: &Arc<Schema>,
    cfds: &[Cfd],
    vscheme: VerticalScheme,
    hscheme: HorizontalScheme,
    yscheme: HybridScheme,
    d0: &Relation,
) -> Vec<Box<dyn Detector>> {
    let b = || DetectorBuilder::new(schema.clone(), cfds.to_vec());
    vec![
        b().vertical(vscheme.clone()).build_dyn(d0).expect("incVer"),
        b().vertical(vscheme.clone())
            .optimized(incdetect::optimize::OptimizeConfig::default())
            .build_dyn(d0)
            .expect("incVer/optVer"),
        b().horizontal(hscheme.clone())
            .build_dyn(d0)
            .expect("incHor"),
        b().horizontal(hscheme.clone())
            .raw_values()
            .build_dyn(d0)
            .expect("incHor/raw"),
        b().hybrid(yscheme).build_dyn(d0).expect("incHyb"),
        b().baseline(BaselineStrategy::BatVer(vscheme.clone()))
            .build_dyn(d0)
            .expect("batVer"),
        b().baseline(BaselineStrategy::BatHor(hscheme.clone()))
            .build_dyn(d0)
            .expect("batHor"),
        b().baseline(BaselineStrategy::IbatVer(vscheme))
            .build_dyn(d0)
            .expect("ibatVer"),
        b().baseline(BaselineStrategy::IbatHor(hscheme))
            .build_dyn(d0)
            .expect("ibatHor"),
    ]
}

/// The single shared driver: apply `delta`, keep a centralized mirror in
/// lockstep, and check the full trait contract after every batch —
/// violations equal the oracle, `ΔV` is exactly the settled diff of the
/// violation sets, and the mirror matches.
fn drive_and_check(det: &mut dyn Detector, mirror: &mut Relation, delta: &UpdateBatch) {
    check_step(det, mirror, delta, |det| det.apply(delta));
}

/// [`drive_and_check`] for one update through [`Detector::apply_one`],
/// returning the reported `ΔV`.
fn drive_one_and_check(det: &mut dyn Detector, mirror: &mut Relation, op: &Update) -> DeltaV {
    let mut delta = UpdateBatch::new();
    match op {
        Update::Insert(t) => delta.insert(t.clone()),
        Update::Delete(tid) => delta.delete(*tid),
    }
    check_step(det, mirror, &delta, |det| det.apply_one(op))
}

/// Run `apply` (which must fold `delta` into `det`) and check the trait
/// contract against the oracle, advancing `mirror` by `delta`.
fn check_step(
    det: &mut dyn Detector,
    mirror: &mut Relation,
    delta: &UpdateBatch,
    apply: impl FnOnce(&mut dyn Detector) -> Result<DeltaV, DetectError>,
) -> DeltaV {
    let before = det.violations().clone();
    let dv = apply(&mut *det).unwrap_or_else(|e| {
        panic!("{} failed to apply: {e}", det.strategy());
    });
    delta
        .normalize(&mirror.clone())
        .apply(mirror)
        .expect("mirror applies");

    let oracle = cfd::naive::detect(det.cfds(), mirror);
    assert_eq!(
        det.violations().marks_sorted(),
        oracle.marks_sorted(),
        "{} diverged from the oracle",
        det.strategy()
    );
    assert_eq!(
        dv,
        before.diff(det.violations()),
        "{} reported a ΔV that is not the net violation-set change",
        det.strategy()
    );
    assert_eq!(
        det.current().len(),
        mirror.len(),
        "{} mirror out of sync",
        det.strategy()
    );
    dv
}

/// A uniform pick from `vs`.
fn pick<T: Copy>(rng: &mut StdRng, vs: &[T]) -> T {
    vs[rng.random_range(0..vs.len())]
}

/// A random EMP tuple over tiny domains (2–3 values per attribute), so
/// keys and patterns collide constantly. Grades stay within the three
/// fragments of the horizontal scheme.
fn dense_emp_tuple(tid: Tid, rng: &mut StdRng) -> Tuple {
    let strs = |rng: &mut StdRng, domains: &[&[&str]]| -> Vec<Value> {
        domains.iter().map(|vs| Value::str(pick(rng, vs))).collect()
    };
    let mut vals = vec![Value::int(tid as i64)];
    // name, sex, grade, street, city, zip
    vals.extend(strs(
        rng,
        &[
            &["Mike", "Sam"],
            &["M", "F"],
            &["A", "B", "C"],
            &["Mayfield", "Crichton", "Preston"],
            &["EDI", "NYC"],
            &["EH4 8LE", "EH2 4HF"],
        ],
    ));
    // CC, AC
    vals.push(Value::int(pick(rng, &[44, 1])));
    vals.push(Value::int(pick(rng, &[131, 908])));
    // phn, salary, hd
    vals.extend(strs(
        rng,
        &[
            &["3456789", "2909209"],
            &["60k", "80k"],
            &["1/3/93", "9/1/07"],
        ],
    ));
    Tuple::new(tid, vals)
}

/// A seeded one-op-at-a-time EMP stream from `d0` that holds at most a
/// dozen live tuples: fresh inserts, same-tid modifies that change a
/// value, same-tid reinserts of the identical tuple, deletes of live tids
/// and deletes of absent tids.
fn dense_emp_stream(d0: &Relation, n_ops: usize, seed: u64) -> Vec<Update> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mirror = d0.clone();
    let mut next_tid: Tid = 100;
    let mut ops = Vec::with_capacity(n_ops);
    while ops.len() < n_ops {
        let live: Vec<Tid> = mirror.tids().collect();
        let roll = rng.random_range(0..10u32);
        let op = if live.is_empty() || (roll <= 3 && live.len() < 12) {
            next_tid += 1;
            Update::Insert(dense_emp_tuple(next_tid, &mut rng))
        } else {
            let tid = pick(&mut rng, &live);
            let old = mirror.get(tid).expect("live tuple");
            match roll {
                4 | 5 => loop {
                    let t = dense_emp_tuple(tid, &mut rng);
                    if t.values != old.values {
                        break Update::Insert(t);
                    }
                },
                6 => Update::Insert(old),
                7 => Update::Delete(next_tid + 1 + rng.random_range(0..5u64)),
                _ => Update::Delete(tid),
            }
        };
        let mut delta = UpdateBatch::new();
        match &op {
            Update::Insert(t) => delta.insert(t.clone()),
            Update::Delete(tid) => delta.delete(*tid),
        }
        delta
            .normalize(&mirror.clone())
            .apply(&mut mirror)
            .expect("stream op applies");
        ops.push(op);
    }
    ops
}

#[test]
fn all_strategies_track_the_oracle_on_emp() {
    let (schema, d0) = workload::emp::emp_relation();
    let sigma = workload::emp::emp_cfds(&schema);
    let vscheme = workload::emp::emp_vertical_scheme(&schema);
    let hscheme = workload::emp::emp_horizontal_scheme(&schema);
    let yscheme = HybridScheme::uniform(schema.clone(), 2, 2).expect("hybrid scheme");

    // The paper's Example 2 sequence plus a mixed batch, through every
    // strategy via the one driver.
    for det in &mut all_strategies(&schema, &sigma, vscheme, hscheme, yscheme, &d0) {
        let mut mirror = d0.clone();

        let mut delta = UpdateBatch::new();
        delta.insert(workload::emp::t6());
        drive_and_check(det.as_mut(), &mut mirror, &delta);
        assert_eq!(
            det.violations().tids_sorted(),
            vec![1, 3, 4, 5, 6],
            "{} after inserting t6",
            det.strategy()
        );

        let mut delta = UpdateBatch::new();
        delta.delete(4);
        drive_and_check(det.as_mut(), &mut mirror, &delta);

        let mut delta = UpdateBatch::new();
        delta.delete(2);
        delta.insert(retid(&workload::emp::t6(), 9));
        delta.delete(5);
        drive_and_check(det.as_mut(), &mut mirror, &delta);
    }
}

#[test]
fn all_strategies_track_the_oracle_on_dblp() {
    let cfg = DblpConfig {
        n_rows: 400,
        n_venues: 30,
        n_authors: 120,
        error_rate: 0.06,
        seed: 5,
    };
    let (schema, d0) = dblp::generate(&cfg);
    let sigma = workload::rules::dblp_rules(&schema, 12, 4);
    let vscheme = dblp::vertical_scheme(&schema, 4);
    let hscheme = dblp::horizontal_scheme(&schema, 4);
    let yscheme = HybridScheme::uniform(schema.clone(), 2, 2).expect("hybrid scheme");

    for det in &mut all_strategies(&schema, &sigma, vscheme, hscheme, yscheme, &d0) {
        let mut mirror = d0.clone();
        let mut next_tid = 1_000_000u64;
        for round in 0..3u64 {
            let fresh = dblp::generate_fresh(&cfg, next_tid, 40, round + 1);
            next_tid += 40;
            let delta = updates::generate(
                &mirror,
                &fresh,
                50,
                UpdateMix {
                    insert_fraction: 0.7,
                },
                round ^ 0x33,
            );
            drive_and_check(det.as_mut(), &mut mirror, &delta);
        }
    }
}

#[test]
fn all_strategies_track_the_oracle_one_op_at_a_time() {
    let (schema, d0) = workload::emp::emp_relation();
    let sigma = workload::emp::emp_cfds(&schema);
    let vscheme = workload::emp::emp_vertical_scheme(&schema);
    let hscheme = workload::emp::emp_horizontal_scheme(&schema);
    let yscheme = HybridScheme::uniform(schema.clone(), 2, 2).expect("hybrid scheme");
    let stream = dense_emp_stream(&d0, 400, 0x0E1);

    for det in &mut all_strategies(&schema, &sigma, vscheme, hscheme, yscheme, &d0) {
        let strategy = det.strategy();
        let mut mirror = d0.clone();
        // Modifies, identical reinserts, absent deletes, curing deletes.
        let mut seen = [0usize; 4];
        for op in &stream {
            let old = mirror.get(op.tid());
            let dv = drive_one_and_check(det.as_mut(), &mut mirror, op);
            match (op, old) {
                (Update::Insert(t), Some(old)) if t.values == old.values => {
                    assert!(dv.is_empty(), "{strategy}: identical reinsert of {}", t.tid);
                    seen[1] += 1;
                }
                (Update::Insert(_), Some(_)) => seen[0] += 1,
                (Update::Delete(tid), None) => {
                    assert!(dv.is_empty(), "{strategy}: delete of absent {tid}");
                    seen[2] += 1;
                }
                (Update::Delete(_), Some(_)) if !dv.removed.is_empty() => seen[3] += 1,
                _ => {}
            }
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "{strategy}: stream lacks an op kind (modify, reinsert, absent delete, curing delete): {seen:?}"
        );
    }
}

#[test]
fn delta_v_nets_out_remove_then_readd_within_one_batch() {
    // Deleting t5 collapses the EH4 8LE group (marks of t1, t3, t4, t5 go);
    // inserting t7 with a clashing street recreates the conflict in the
    // same batch (marks of t1, t3, t4 come back, t7 joins). The marks that
    // were removed and re-added must report as a no-op: ΔV⁻ = {(φ1, t5)},
    // ΔV⁺ = {(φ1, t7)} — for every strategy.
    let (schema, d0) = workload::emp::emp_relation();
    let sigma = workload::emp::emp_cfds(&schema);
    let vscheme = workload::emp::emp_vertical_scheme(&schema);
    let hscheme = workload::emp::emp_horizontal_scheme(&schema);
    let yscheme = HybridScheme::uniform(schema.clone(), 2, 2).expect("hybrid scheme");

    let street = schema.attr_id("street").expect("street attribute");
    let mut vals: Vec<Value> = retid(&workload::emp::t6(), 7).values.to_vec();
    vals[street as usize] = Value::str("Marchmont");
    let t7 = Tuple::new(7, vals);

    let mut delta = UpdateBatch::new();
    delta.delete(5);
    delta.insert(t7);

    for det in &mut all_strategies(&schema, &sigma, vscheme, hscheme, yscheme, &d0) {
        let strategy = det.strategy();
        let dv = det.apply(&delta).expect("apply succeeds");
        assert_eq!(dv.removed, vec![(0, 5)], "{strategy}: ΔV⁻ must net out");
        assert_eq!(dv.added, vec![(0, 7)], "{strategy}: ΔV⁺ must net out");
    }
}

#[test]
fn net_report_is_normalized_across_strategies() {
    let (schema, d0) = workload::emp::emp_relation();
    let sigma = workload::emp::emp_cfds(&schema);
    let vscheme = workload::emp::emp_vertical_scheme(&schema);
    let hscheme = workload::emp::emp_horizontal_scheme(&schema);
    let yscheme = HybridScheme::uniform(schema.clone(), 2, 2).expect("hybrid scheme");

    let mut delta = UpdateBatch::new();
    delta.insert(workload::emp::t6());
    delta.delete(2);

    let model = CostModel::default();
    for det in &mut all_strategies(&schema, &sigma, vscheme, hscheme, yscheme, &d0) {
        det.apply(&delta).expect("apply succeeds");
        let net = det.net();
        assert!(!net.tiers().is_empty(), "{}", det.strategy());
        // Roll-ups agree with the per-tier sums for every strategy.
        let bytes: u64 = net.tiers().iter().map(|(_, s)| s.total_bytes()).sum();
        assert_eq!(net.total_bytes(), bytes, "{}", det.strategy());
        assert!(net.simulated_seconds(&model) >= 0.0);
        assert!(net.pipelined_seconds(&model) <= net.simulated_seconds(&model) + 1e-12);
        // The batch baselines recompute over |D| and must ship data where
        // the incremental detectors often ship nothing.
        if det.strategy().starts_with("bat") || det.strategy().starts_with("ibat") {
            assert!(
                net.total_bytes() > 0,
                "{} must meter its recompute",
                det.strategy()
            );
        }
        det.reset_stats();
        assert_eq!(det.net().total_bytes(), 0, "{} reset", det.strategy());
    }

    // The hybrid report exposes both tiers by name.
    let mut hybrid = DetectorBuilder::new(schema.clone(), sigma)
        .hybrid(HybridScheme::uniform(schema.clone(), 2, 2).expect("scheme"))
        .build_dyn(&d0)
        .expect("incHyb");
    hybrid.apply(&delta).expect("apply");
    let net = hybrid.net();
    assert!(net.tier("inter").is_some());
    assert!(net.tier("intra").is_some());
}

#[test]
fn detect_error_is_the_boundary_error() {
    // Deleting a missing tid surfaces as DetectError::Rel for every
    // strategy — no per-detector error type escapes the trait boundary.
    let (schema, d0) = workload::emp::emp_relation();
    let sigma = workload::emp::emp_cfds(&schema);
    let vscheme = workload::emp::emp_vertical_scheme(&schema);
    let hscheme = workload::emp::emp_horizontal_scheme(&schema);
    let yscheme = HybridScheme::uniform(schema.clone(), 2, 2).expect("hybrid scheme");

    // A delete of a live tid followed by a re-delete of the same tid in a
    // *later* batch: the second batch normalizes to empty, so force the
    // error with an apply of a raw (unnormalizable) missing insert-delete
    // pair instead: applying `delete(4)` twice across batches.
    for det in &mut all_strategies(&schema, &sigma, vscheme, hscheme, yscheme, &d0) {
        let mut delta = UpdateBatch::new();
        delta.delete(4);
        det.apply(&delta).expect("first delete succeeds");
        // Normalization drops the second delete (tid gone) — no error,
        // and the batch is a no-op.
        let dv = det.apply(&delta).expect("normalized to a no-op");
        assert!(dv.is_empty(), "{}", det.strategy());
    }

    // Routing errors surface as DetectError::Cluster: a tuple whose grade
    // matches no horizontal fragment cannot be routed.
    let mut hdet = DetectorBuilder::new(schema.clone(), sigma)
        .horizontal(workload::emp::emp_horizontal_scheme(&schema))
        .build(&d0)
        .expect("incHor");
    let mut bad = retid(&workload::emp::t6(), 50).values.to_vec();
    let grade = schema.attr_id("grade").expect("grade attribute");
    bad[grade as usize] = Value::str("Z");
    let mut delta = UpdateBatch::new();
    delta.insert(Tuple::new(50, bad));
    match hdet.apply(&delta) {
        Err(DetectError::Cluster(_)) => {}
        other => panic!("expected DetectError::Cluster, got {other:?}"),
    }

    // The horizontal batch baselines must surface the same routing error
    // (not panic), and a failed batch must leave their state untouched.
    let sigma = workload::emp::emp_cfds(&schema);
    for strategy in [
        BaselineStrategy::BatHor(workload::emp::emp_horizontal_scheme(&schema)),
        BaselineStrategy::IbatHor(workload::emp::emp_horizontal_scheme(&schema)),
    ] {
        let mut det = DetectorBuilder::new(schema.clone(), sigma.clone())
            .baseline(strategy)
            .build_dyn(&d0)
            .expect("baseline builds");
        let marks_before = det.violations().marks_sorted();
        let len_before = det.current().len();
        match det.apply(&delta) {
            Err(DetectError::Cluster(_)) => {}
            other => panic!(
                "{}: expected DetectError::Cluster, got {other:?}",
                det.strategy()
            ),
        }
        assert_eq!(
            det.current().len(),
            len_before,
            "{}: state mutated",
            det.strategy()
        );
        assert_eq!(
            det.violations().marks_sorted(),
            marks_before,
            "{}: violations mutated by a failed batch",
            det.strategy()
        );
    }
}
