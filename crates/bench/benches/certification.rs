//! Criterion benchmarks: one group per experiment, timing the full
//! prover + verifier pipeline at representative sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_e1_mso_tree(c: &mut Criterion) {
    let mut g = c.benchmark_group("e1_mso_tree_cert");
    for n in [64usize, 512, 4096] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| black_box(locert_bench::e1_mso_trees::bench_once(n)));
        });
    }
    g.finish();
}

fn bench_e3_treedepth(c: &mut Criterion) {
    let mut g = c.benchmark_group("e3_treedepth_cert");
    for (n, t) in [(256usize, 3usize), (1024, 4), (4096, 5)] {
        g.bench_with_input(
            BenchmarkId::new("n_t", format!("{n}_{t}")),
            &(n, t),
            |b, &(n, t)| {
                b.iter(|| black_box(locert_bench::e3_treedepth::bench_once(n, t, 42)));
            },
        );
    }
    g.finish();
}

fn bench_e4_gadget(c: &mut Criterion) {
    use locert_lb::treedepth_gadget::build_gadget;
    use locert_treedepth::treedepth_exact;
    let mut g = c.benchmark_group("e4_treedepth_lb");
    g.bench_function("gadget_n2_exact_td", |b| {
        b.iter(|| {
            let (graph, _) = build_gadget(2, &[0, 1], &[0, 1]);
            black_box(treedepth_exact(&graph))
        });
    });
    g.finish();
}

fn bench_e5_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("e5_kernel_mso");
    for n in [64usize, 512, 4096] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| black_box(locert_bench::e5_kernel::bench_once(n)));
        });
    }
    g.finish();
}

fn bench_e6_minor_free(c: &mut Criterion) {
    let mut g = c.benchmark_group("e6_minor_free");
    for n in [64usize, 512] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| black_box(locert_bench::e6_minor_free::bench_once(n)));
        });
    }
    g.finish();
}

fn bench_e7_fo(c: &mut Criterion) {
    let mut g = c.benchmark_group("e7_fo_fragments");
    for n in [64usize, 1024] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| black_box(locert_bench::e7_fo_fragments::bench_once(n)));
        });
    }
    g.finish();
}

fn bench_e8_words(c: &mut Criterion) {
    let mut g = c.benchmark_group("e8_word_automata");
    for n in [64usize, 1024, 8192] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| black_box(locert_bench::e8_words::bench_once(n)));
        });
    }
    g.finish();
}

fn bench_p34_spanning_tree(c: &mut Criterion) {
    let mut g = c.benchmark_group("p34_spanning_tree");
    for n in [256usize, 4096] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| black_box(locert_bench::p34_spanning_tree::bench_once(n, 7)));
        });
    }
    g.finish();
}

fn bench_e2_counting(c: &mut Criterion) {
    use locert_graph::enumerate::count_trees_log2;
    let mut g = c.benchmark_group("e2_fpf_lowerbound");
    for n in [64usize, 256] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| black_box(count_trees_log2(n, 3)));
        });
    }
    g.finish();
}

fn bench_f1_paths(c: &mut Criterion) {
    use locert_treedepth::bounds::path_elimination_tree;
    let mut g = c.benchmark_group("f1_path_models");
    for k in [8usize, 12] {
        g.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| black_box(path_elimination_tree((1 << k) - 1).1.height()));
        });
    }
    g.finish();
}

/// The parallel-runtime workload: an exhaustive soundness sweep over
/// ~118k certificate assignments, enumerated on the locert-par pool.
/// CI runs this suite at LOCERT_THREADS=1 and =4 and records both
/// BENCH_certification.json artifacts; on multi-core hosts the
/// multi-thread median for this group should be >= 2x faster.
fn bench_s1_exhaustive(c: &mut Criterion) {
    let mut g = c.benchmark_group("s1_exhaustive");
    g.bench_function("acyclicity_cycle6_b2", |b| {
        b.iter(|| black_box(locert_bench::s1_soundness::exhaustive_once(6, 2)));
    });
    g.finish();
}

fn bench_prover_vs_verifier(c: &mut Criterion) {
    use locert_core::framework::{run_verification, Instance, Prover};
    use locert_core::schemes::common::id_bits_for;
    use locert_core::schemes::treedepth::{ModelStrategy, TreedepthScheme};
    use locert_graph::{generators, IdAssignment};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut group = c.benchmark_group("split_prover_verifier");
    let n = 2048;
    let t = 5;
    let mut rng = StdRng::seed_from_u64(7);
    let (g, parents) = generators::random_bounded_treedepth(n, t, 0.3, &mut rng);
    let ids = IdAssignment::contiguous(n);
    let inst = Instance::new(&g, &ids);
    let scheme =
        TreedepthScheme::new(id_bits_for(&inst), t).with_strategy(ModelStrategy::Explicit(parents));
    group.bench_function("treedepth_prover", |b| {
        b.iter(|| black_box(scheme.assign(&inst).unwrap().max_bits()));
    });
    let asg = scheme.assign(&inst).unwrap();
    group.bench_function("treedepth_verifier_all_nodes", |b| {
        b.iter(|| black_box(run_verification(&scheme, &inst, &asg).accepted()));
    });
    group.finish();
}

/// Runs `each` on every compact catalogue scheme with its canonical
/// family instance at n = 16384, skipping the broadcast scheme, whose
/// O(n²) maps are out of reach at this n.
fn for_catalogue_at_16384(
    mut each: impl FnMut(
        &str,
        &dyn locert_core::framework::Scheme,
        &locert_core::framework::Instance<'_>,
    ),
) {
    use locert_core::catalogue;
    use locert_core::framework::{DeclaredBound, Instance};
    use locert_core::schemes::common::id_bits_for;
    use locert_graph::IdAssignment;

    for entry in catalogue::entries() {
        let (graph, inputs) = (entry.family)(16384);
        let ids = IdAssignment::contiguous(graph.num_nodes());
        let inst = match &inputs {
            Some(word) => Instance::with_inputs(&graph, &ids, word),
            None => Instance::new(&graph, &ids),
        };
        let scheme = (entry.build)(id_bits_for(&inst), graph.num_nodes());
        if scheme.declared_bound() != DeclaredBound::QuadraticN {
            each(entry.id, scheme.as_ref(), &inst);
        }
    }
}

/// The verifier layer alone: `run_verification` on each compact catalogue
/// scheme's canonical family at n = 16384, with the honest assignment
/// made once outside the timed loop.
fn bench_verify_catalogue(c: &mut Criterion) {
    use locert_core::framework::run_verification;

    let mut g = c.benchmark_group("verify_catalogue");
    for_catalogue_at_16384(|id, scheme, inst| {
        let asg = scheme
            .assign(inst)
            .expect("family instances are yes-instances");
        g.bench_with_input(BenchmarkId::new(id, 16384), &16384, |b, _| {
            b.iter(|| black_box(run_verification(scheme, inst, &asg).accepted()));
        });
    });
    g.finish();
}

/// The prover layer alone: `assign` on the same instances as
/// `verify_catalogue`, so each id's prover and verifier medians compare.
fn bench_prove_catalogue(c: &mut Criterion) {
    let mut g = c.benchmark_group("prove_catalogue");
    for_catalogue_at_16384(|id, scheme, inst| {
        g.bench_with_input(BenchmarkId::new(id, 16384), &16384, |b, _| {
            b.iter(|| black_box(scheme.assign(inst).expect("yes-instance").len()));
        });
    });
    g.finish();
}

/// The generator layer's admission step: `Graph::from_edges` on a
/// prepared edge list (the form a `.graph` file or a wire request
/// arrives in), so only the validation and the CSR build are timed.
fn bench_graph_build(c: &mut Criterion) {
    use locert_graph::{generators, Graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let n = 16384;
    let mut rng = StdRng::seed_from_u64(7);
    let mut g = c.benchmark_group("graph_build");
    for (family, graph) in [
        ("path", generators::path(n)),
        ("random_tree", generators::random_tree(n, &mut rng)),
        (
            "random_connected",
            generators::random_connected(n, n, &mut rng),
        ),
    ] {
        let edges: Vec<(usize, usize)> = graph.edges().map(|(u, v)| (u.0, v.0)).collect();
        g.bench_with_input(
            BenchmarkId::new(format!("from_edges/{family}"), n),
            &edges,
            |b, edges| {
                b.iter(|| black_box(Graph::from_edges(n, edges.iter().copied()).unwrap()));
            },
        );
    }
    g.finish();
}

/// The broadcast path's layers on the star `broadcast-dense` times at
/// its largest size: the sparse universal "diameter ≤ 2" prover, its
/// verifier on the honest assignment, and the certificate-free radius-3
/// check; and the radius-3 check on a sparse host, a long path, whose
/// balls are a few vertices each.
fn bench_broadcast(c: &mut Criterion) {
    use locert_core::framework::{run_verification, Assignment, Instance, Prover};
    use locert_core::radius::{run_radius_verification, DiameterTwoAtRadiusThree};
    use locert_core::schemes::common::id_bits_for;
    use locert_core::schemes::universal::UniversalScheme;
    use locert_graph::{generators, traversal, IdAssignment};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let n = 512;
    let graph = generators::star(n);
    let ids = IdAssignment::shuffled(n, &mut StdRng::seed_from_u64(7));
    let inst = Instance::new(&graph, &ids);
    let scheme = UniversalScheme::new(id_bits_for(&inst), "diameter<=2", |g| {
        traversal::diameter(g).is_some_and(|d| d <= 2)
    })
    .sparse();
    let asg = scheme.assign(&inst).expect("a star has diameter 2");
    let empty = Assignment::empty(n);
    let mut g = c.benchmark_group("broadcast");
    g.bench_with_input(BenchmarkId::new("universal_prove/star", n), &n, |b, _| {
        b.iter(|| black_box(scheme.assign(&inst).expect("yes-instance").len()));
    });
    g.bench_with_input(BenchmarkId::new("universal_verify/star", n), &n, |b, _| {
        b.iter(|| black_box(run_verification(&scheme, &inst, &asg).accepted()));
    });
    g.bench_with_input(BenchmarkId::new("radius3/star", n), &n, |b, _| {
        b.iter(|| {
            black_box(run_radius_verification(&DiameterTwoAtRadiusThree, &inst, &empty).is_empty())
        });
    });
    let sparse = 16384;
    let path = generators::path(sparse);
    let path_ids = IdAssignment::contiguous(sparse);
    let path_inst = Instance::new(&path, &path_ids);
    let path_empty = Assignment::empty(sparse);
    g.bench_with_input(BenchmarkId::new("radius3/path", sparse), &sparse, |b, _| {
        b.iter(|| {
            black_box(
                run_radius_verification(&DiameterTwoAtRadiusThree, &path_inst, &path_empty).len(),
            )
        });
    });
    g.finish();
}

fn config() -> Criterion {
    // Keep the full-suite wall time bounded: 10 samples × short windows.
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(800))
        .warm_up_time(std::time::Duration::from_millis(200))
}

criterion_group!(
    name = benches;
    config = config();
    targets =
    bench_prover_vs_verifier,
    bench_broadcast,
    bench_e1_mso_tree,
    bench_e2_counting,
    bench_e3_treedepth,
    bench_e4_gadget,
    bench_e5_kernel,
    bench_e6_minor_free,
    bench_e7_fo,
    bench_e8_words,
    bench_f1_paths,
    bench_graph_build,
    bench_p34_spanning_tree,
    bench_s1_exhaustive,
    bench_verify_catalogue,
    bench_prove_catalogue,
);
criterion_main!(benches);
