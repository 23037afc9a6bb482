//! Property tests for the simulation kernel: queue ordering against a
//! reference model, waveform/motion invariants, and spatial-index and
//! batch-synthesis equivalence against the brute-force scans and the
//! per-sample synthesis they replaced. Those references live here, not in
//! the library: [`brute_force_peak_level`] and [`reference_sample`].

use enviromic_sim::acoustics::{AcousticField, MixScratch, Motion, SourceId, SourceSpec, Waveform};
use enviromic_sim::queue::EventQueue;
use enviromic_sim::spatial::{AudibleEntry, AudibleIndex, NodeGrid};
use enviromic_types::{audio, Position, SimDuration, SimTime, JIFFIES_PER_SEC};
use proptest::prelude::*;

/// The strongest single-source level heard at `listener` at `t`, over
/// every source of the field: the scan [`AudibleIndex::peak_level`]
/// replaced.
fn brute_force_peak_level(field: &AcousticField, listener: Position, t: SimTime) -> f64 {
    field
        .sources()
        .iter()
        .map(|s| s.level_at(listener, t))
        .fold(0.0, f64::max)
}

/// One 8-bit sample heard at `listener` at `t_s` seconds, mixing
/// `sources` one after another around the 128 midpoint with the ambient
/// deviation `noise`: the per-sample path that
/// [`AcousticField::synthesize_batch`] replaced.
fn reference_sample<'a>(
    sources: impl Iterator<Item = &'a SourceSpec>,
    listener: Position,
    t_s: f64,
    noise: f64,
) -> u8 {
    let t = SimTime::from_jiffies((t_s * JIFFIES_PER_SEC as f64) as u64);
    let mut acc = 0.0;
    for s in sources {
        let lvl = s.level_at(listener, t);
        if lvl > 0.0 {
            acc += lvl * s.waveform.value_at(t_s);
        }
    }
    let centered = 128.0 + acc + noise;
    centered.clamp(0.0, 255.0) as u8
}

/// [`reference_sample`] over the sources at the ascending indices
/// `candidates` into [`AcousticField::sources`].
fn reference_sample_from(
    field: &AcousticField,
    candidates: &[u32],
    listener: Position,
    t_s: f64,
    noise: f64,
) -> u8 {
    let sources = field.sources();
    reference_sample(
        candidates.iter().map(|&i| &sources[i as usize]),
        listener,
        t_s,
        noise,
    )
}

/// Builds a small random field: one static source and one mobile source
/// per `(start, stop, amp, range, x)` tuple, alternating waveforms.
fn random_sources(specs: &[(u64, u64, f64, f64, f64)]) -> Vec<SourceSpec> {
    specs
        .iter()
        .enumerate()
        .map(|(i, &(start, len, amp, range, x))| SourceSpec {
            id: SourceId(i as u32),
            start: SimTime::from_jiffies(start),
            stop: SimTime::from_jiffies(start + len.max(1)),
            amplitude: amp,
            range_ft: range,
            motion: if i % 2 == 0 {
                Motion::Static(Position::new(x, 30.0))
            } else {
                Motion::Waypoints(vec![
                    (SimTime::from_jiffies(start), Position::new(x, 0.0)),
                    (
                        SimTime::from_jiffies(start + len.max(1)),
                        Position::new(60.0 - x, 60.0),
                    ),
                ])
            },
            waveform: if i % 2 == 0 {
                Waveform::Tone { freq_hz: 440.0 }
            } else {
                Waveform::Noise
            },
        })
        .collect()
}

/// The receiver set the pre-index delivery loop produced: every alive node
/// within range, in ascending node-index order.
fn brute_force_receivers(
    positions: &[Position],
    alive: &[bool],
    center: Position,
    range: f64,
) -> Vec<u32> {
    positions
        .iter()
        .enumerate()
        .filter(|&(i, p)| alive[i] && p.distance_to(center) <= range)
        .map(|(i, _)| i as u32)
        .collect()
}

proptest! {
    /// The event queue pops in (time, insertion-order) order for arbitrary
    /// schedules, matching a stable sort of the input.
    #[test]
    fn queue_matches_stable_sort(times in proptest::collection::vec(0u64..1000, 0..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_jiffies(t), i);
        }
        let mut expect: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expect.sort_by_key(|&(t, _)| t); // stable: preserves insertion order
        let got: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop().map(|(t, i)| (t.as_jiffies(), i))).collect();
        prop_assert_eq!(got, expect);
    }

    /// For ANY interleaving of schedule and pop operations — not just
    /// schedule-all-then-pop-all — every pop returns exactly what a
    /// sorted-stable reference model (ordered by time, then insertion
    /// order) would return, and the queue length tracks the model's.
    #[test]
    fn interleaved_ops_match_reference_model(
        ops in proptest::collection::vec(
            // None = pop; Some(d) = schedule d jiffies after the last
            // popped time (the queue's contract: nothing fires in the
            // past). Delays collide often (0..50) so the insertion-order
            // tie-break is exercised hard.
            proptest::option::of(0u64..50),
            0..300,
        )
    ) {
        let mut q = EventQueue::new();
        // Reference model: a plain Vec kept sorted by (time, insertion
        // seq) via stable insertion; pop takes the front.
        let mut model: Vec<(u64, usize)> = Vec::new();
        let mut next_insert = 0usize;
        let mut now = 0u64;
        for op in ops {
            match op {
                Some(delay) => {
                    let t = now + delay;
                    q.schedule(SimTime::from_jiffies(t), next_insert);
                    // Insert after every existing entry with time <= t:
                    // stable w.r.t. insertion order.
                    let pos = model.partition_point(|&(mt, _)| mt <= t);
                    model.insert(pos, (t, next_insert));
                    next_insert += 1;
                }
                None => {
                    let got = q.pop().map(|(t, i)| (t.as_jiffies(), i));
                    let expect = if model.is_empty() {
                        None
                    } else {
                        Some(model.remove(0))
                    };
                    prop_assert_eq!(got, expect);
                    if let Some((t, _)) = got {
                        now = t;
                    }
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.peek_time().map(SimTime::as_jiffies), model.first().map(|&(t, _)| t));
        }
        // Drain what's left: the tail must come out in model order too.
        let got: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop().map(|(t, i)| (t.as_jiffies(), i))).collect();
        prop_assert_eq!(got, model);
    }

    /// Waypoint interpolation never leaves the bounding box of its
    /// waypoints and is monotone along a straight line.
    #[test]
    fn motion_stays_in_bounds(
        x0 in -100.0f64..100.0,
        x1 in -100.0f64..100.0,
        t_end in 1u64..1_000_000,
        sample in 0u64..2_000_000,
    ) {
        let m = Motion::Waypoints(vec![
            (SimTime::ZERO, Position::new(x0, 0.0)),
            (SimTime::from_jiffies(t_end), Position::new(x1, 0.0)),
        ]);
        let p = m.position_at(SimTime::from_jiffies(sample));
        let (lo, hi) = (x0.min(x1), x0.max(x1));
        prop_assert!(p.x >= lo - 1e-9 && p.x <= hi + 1e-9, "{} not in [{lo}, {hi}]", p.x);
    }

    /// The grid index returns the identical *ordered* receiver set as the
    /// brute-force O(N) scan for arbitrary topologies, query points,
    /// ranges, and death patterns. Ordered equality is the property the
    /// golden digests rest on: loss draws happen per receiver in this
    /// exact order.
    #[test]
    fn grid_matches_brute_force_receiver_set(
        coords in proptest::collection::vec((-200.0f64..200.0, -200.0f64..200.0), 1..120),
        dead in proptest::collection::vec(any::<bool>(), 1..120),
        range in 0.1f64..250.0,
        qx in -250.0f64..250.0,
        qy in -250.0f64..250.0,
    ) {
        let positions: Vec<Position> =
            coords.iter().map(|&(x, y)| Position::new(x, y)).collect();
        let all_alive = vec![true; positions.len()];
        let mut grid = NodeGrid::build(&positions, &all_alive, range);
        // Kill a prefix-pattern of nodes *after* the build, the way the
        // world evicts on death.
        let mut alive = all_alive.clone();
        for (i, &d) in dead.iter().take(positions.len()).enumerate() {
            if d {
                alive[i] = false;
                grid.remove(i);
            }
        }
        let mut out = Vec::new();
        // Query from every node position and from an arbitrary point.
        for &center in positions.iter().chain([Position::new(qx, qy)].iter()) {
            grid.query_sorted(center, range, &mut out);
            let brute = brute_force_receivers(&positions, &alive, center, range);
            prop_assert_eq!(&out, &brute, "center {}", center);
        }
    }

    /// The audible-source index agrees bit-for-bit with the brute-force
    /// field scan for mixed static + mobile sources at every node and
    /// sampled instant.
    #[test]
    fn audible_index_matches_brute_force_levels(
        coords in proptest::collection::vec((0.0f64..60.0, 0.0f64..60.0), 1..40),
        src_range in 0.5f64..30.0,
        amp in 1.0f64..200.0,
        static_x in 0.0f64..60.0,
        wp in proptest::collection::vec((0u64..400_000, 0.0f64..60.0, 0.0f64..60.0), 1..6),
        times in proptest::collection::vec(0u64..500_000, 1..40),
    ) {
        let positions: Vec<Position> =
            coords.iter().map(|&(x, y)| Position::new(x, y)).collect();
        let mut waypoints: Vec<(SimTime, Position)> = wp
            .iter()
            .map(|&(t, x, y)| (SimTime::from_jiffies(t), Position::new(x, y)))
            .collect();
        waypoints.sort_by_key(|&(t, _)| t);
        let sources = vec![
            SourceSpec {
                id: SourceId(0),
                start: SimTime::from_jiffies(50_000),
                stop: SimTime::from_jiffies(300_000),
                amplitude: amp,
                range_ft: src_range,
                motion: Motion::Static(Position::new(static_x, 30.0)),
                waveform: Waveform::Noise,
            },
            SourceSpec {
                id: SourceId(1),
                start: SimTime::from_jiffies(20_000),
                stop: SimTime::from_jiffies(450_000),
                amplitude: amp,
                range_ft: src_range,
                motion: Motion::Waypoints(waypoints),
                waveform: Waveform::Tone { freq_hz: 440.0 },
            },
        ];
        let mut field = AcousticField::new();
        for s in &sources {
            field.add_source(s.clone()).unwrap();
        }
        let idx = AudibleIndex::build(&positions, &sources);
        let mut block = Vec::new();
        for (ni, &p) in positions.iter().enumerate() {
            for &tj in &times {
                let t = SimTime::from_jiffies(tj);
                let brute = brute_force_peak_level(&field, p, t);
                let fast = idx.peak_level(&field, ni, p, t);
                prop_assert_eq!(brute.to_bits(), fast.to_bits(),
                    "node {} at {} jiffies: {} != {}", ni, tj, brute, fast);
                // Synthesized samples through the block-candidate path are
                // bit-identical to the full-field scan too.
                let t_s = t.as_secs_f64();
                idx.block_sources(ni, t, t + SimDuration::from_millis(85), &mut block);
                prop_assert_eq!(
                    reference_sample(field.sources().iter(), p, t_s, 0.35),
                    reference_sample_from(&field, &block, p, t_s, 0.35)
                );
            }
        }
    }

    /// Binary-search waypoint lookup agrees bit-for-bit with the linear
    /// `windows(2)` scan it replaced, on dense waypoint lists with
    /// duplicate timestamps.
    #[test]
    fn position_at_matches_linear_reference(
        wp in proptest::collection::vec((0u64..10_000, -50.0f64..50.0, -50.0f64..50.0), 1..80),
        times in proptest::collection::vec(0u64..12_000, 1..60),
    ) {
        let mut points: Vec<(SimTime, Position)> = wp
            .iter()
            .map(|&(t, x, y)| (SimTime::from_jiffies(t), Position::new(x, y)))
            .collect();
        points.sort_by_key(|&(t, _)| t);
        // The pre-index implementation, kept verbatim as the reference.
        let linear = |t: SimTime| -> Position {
            if t <= points[0].0 {
                return points[0].1;
            }
            for pair in points.windows(2) {
                let (t0, p0) = pair[0];
                let (t1, p1) = pair[1];
                if t <= t1 {
                    let span = t1.saturating_since(t0).as_jiffies();
                    if span == 0 {
                        return p1;
                    }
                    let frac = t.saturating_since(t0).as_jiffies() as f64 / span as f64;
                    return p0.lerp(p1, frac);
                }
            }
            points.last().expect("non-empty").1
        };
        let m = Motion::Waypoints(points.clone());
        for &tj in &times {
            let t = SimTime::from_jiffies(tj);
            let expect = linear(t);
            let got = m.position_at(t);
            prop_assert_eq!(expect.x.to_bits(), got.x.to_bits(), "x at {}", tj);
            prop_assert_eq!(expect.y.to_bits(), got.y.to_bits(), "y at {}", tj);
        }
    }

    /// The batched synthesis kernel produces exactly the bytes of the
    /// per-sample reference path ([`reference_sample_from`] in a loop) for arbitrary
    /// fields, candidate sets, listeners, block starts, and noise vectors.
    /// This is the bit-exactness property the golden digests rest on: the
    /// batch path may skip work only when a contribution is exactly zero.
    #[test]
    fn batched_synthesis_matches_per_sample_reference(
        specs in proptest::collection::vec(
            (0u64..400_000, 1u64..400_000, 1.0f64..200.0, 0.5f64..40.0, 0.0f64..60.0),
            0..5,
        ),
        include in proptest::collection::vec(any::<bool>(), 5),
        lx in 0.0f64..60.0,
        ly in 0.0f64..60.0,
        t0 in 0u64..600_000,
        noise in proptest::collection::vec(-2.0f64..2.0, 0..300),
    ) {
        let sources = random_sources(&specs);
        let mut field = AcousticField::new();
        for s in &sources {
            field.add_source(s.clone()).unwrap();
        }
        let candidates: Vec<u32> = (0..sources.len() as u32)
            .filter(|&i| include[i as usize])
            .collect();
        let listener = Position::new(lx, ly);
        let t0_s = SimTime::from_jiffies(t0).as_secs_f64();
        let mut scratch = MixScratch::new();
        let mut batched = Vec::new();
        field.synthesize_batch(&candidates, listener, t0_s, &noise, &mut scratch, &mut batched);
        let reference: Vec<u8> = noise
            .iter()
            .enumerate()
            .map(|(i, &nz)| {
                let t_s = t0_s + i as f64 / audio::SAMPLE_RATE_HZ as f64;
                reference_sample_from(&field, &candidates, listener, t_s, nz)
            })
            .collect();
        prop_assert_eq!(batched, reference);
    }

    /// Incrementally maintained candidate lists — sources added one at a
    /// time, an arbitrary subset retired (interleaved with the adds), and
    /// arbitrary nodes cleared — equal a from-scratch build followed by a
    /// naive filter of the same retirements and clears. This pins the
    /// order-preserving binary-search removal against the obviously
    /// correct model.
    #[test]
    fn incremental_index_matches_filtered_rebuild(
        coords in proptest::collection::vec((0.0f64..60.0, 0.0f64..60.0), 1..30),
        specs in proptest::collection::vec(
            (0u64..400_000, 1u64..400_000, 1.0f64..200.0, 0.5f64..40.0, 0.0f64..60.0),
            1..8,
        ),
        retire in proptest::collection::vec(any::<bool>(), 8),
        clear in proptest::collection::vec(any::<bool>(), 30),
    ) {
        let positions: Vec<Position> =
            coords.iter().map(|&(x, y)| Position::new(x, y)).collect();
        let sources = random_sources(&specs);
        let mut inc = AudibleIndex::new(positions.len());
        for (i, s) in sources.iter().enumerate() {
            inc.add_source(&positions, i as u32, s);
            // Retire an earlier source mid-sequence so later adds append
            // after a gap, exercising the ascending-order invariant.
            let earlier = i / 2;
            if retire[earlier] && earlier < i {
                inc.retire_source(earlier as u32);
            }
        }
        for (i, &r) in retire.iter().take(sources.len()).enumerate() {
            if r {
                inc.retire_source(i as u32); // idempotent re-retire
            }
        }
        for (n, &c) in clear.iter().take(positions.len()).enumerate() {
            if c {
                inc.clear_node(n);
            }
        }
        let full = AudibleIndex::build(&positions, &sources);
        for (n, &cleared) in clear.iter().take(positions.len()).enumerate() {
            let expect: Vec<AudibleEntry> = if cleared {
                Vec::new()
            } else {
                full.entries(n)
                    .iter()
                    .copied()
                    .filter(|e| !retire[e.source as usize])
                    .collect()
            };
            prop_assert_eq!(inc.entries(n), &expect[..], "node {}", n);
        }
    }

    /// Source levels are non-negative, bounded by the amplitude, and zero
    /// outside both the active window and the audible range.
    #[test]
    fn level_bounds(
        amp in 1.0f64..200.0,
        range in 0.5f64..50.0,
        start in 0u64..1000,
        len in 1u64..1000,
        lx in -100.0f64..100.0,
        t in 0u64..3000,
    ) {
        let s = SourceSpec {
            id: SourceId(1),
            start: SimTime::from_jiffies(start),
            stop: SimTime::from_jiffies(start + len),
            amplitude: amp,
            range_ft: range,
            motion: Motion::Static(Position::new(0.0, 0.0)),
            waveform: Waveform::Noise,
        };
        let listener = Position::new(lx, 0.0);
        let level = s.level_at(listener, SimTime::from_jiffies(t));
        prop_assert!(level >= 0.0 && level <= amp);
        if t < start || t >= start + len || lx.abs() >= range {
            prop_assert_eq!(level, 0.0);
        }
    }
}

fn secs(s: f64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs_f64(s)
}

#[test]
fn audible_index_is_a_superset_of_audible_sources() {
    let positions = vec![
        Position::new(4.0, 1.0),   // near the first leg
        Position::new(9.0, 7.0),   // near the second leg
        Position::new(40.0, 40.0), // never audible
    ];
    let sources = vec![SourceSpec {
        id: SourceId(1),
        start: secs(1.0),
        stop: secs(11.0),
        amplitude: 100.0,
        range_ft: 2.0,
        motion: Motion::Waypoints(vec![
            (secs(2.0), Position::new(0.0, 0.0)),
            (secs(6.0), Position::new(8.0, 0.0)),
            (secs(10.0), Position::new(8.0, 8.0)),
        ]),
        waveform: Waveform::Noise,
    }];
    let idx = AudibleIndex::build(&positions, &sources);
    assert!(!idx.entries(0).is_empty());
    assert!(!idx.entries(1).is_empty());
    assert!(idx.entries(2).is_empty(), "far node must have no entries");
    // Everywhere the brute-force level is positive, the index agrees
    // bit-for-bit.
    let mut field = AcousticField::new();
    field.add_source(sources[0].clone()).unwrap();
    for (ni, &p) in positions.iter().enumerate() {
        for j in 0..1200 {
            let t = secs(f64::from(j) * 0.01);
            let brute = brute_force_peak_level(&field, p, t);
            let fast = idx.peak_level(&field, ni, p, t);
            assert_eq!(brute.to_bits(), fast.to_bits(), "node {ni} t {t:?}");
        }
    }
}
