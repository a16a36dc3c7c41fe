//! The run path, the prepared per-vertex path and the fault path answer
//! alike, verdict by verdict.
//!
//! `run_verification_in` decides every vertex from the run's arena of
//! decoded certificates; `Verifier::prepare` decodes a certificate list
//! once and decides one vertex at a time from indices into it; and
//! `faults::run_with_faults` decides a faulty world through `prepare`.
//! For every catalogue id, on seeded instances and seeded mutations of
//! their assignments, the first two must give the same reject reason and
//! `bits_read` at every vertex, at 1 and at 4 workers, and the fault path
//! under an empty plan the same rejecting vertices and reasons. A digest
//! of every verdict per id pins the decisions themselves: the digests
//! were computed by this test on the code before the decode stage
//! existed, so a change to any scheme's answers fails here even when all
//! paths move together.

use locert_core::bits::{BitReader, BitWriter, Certificate};
use locert_core::catalogue;
use locert_core::faults::{run_with_faults, FaultPlan};
use locert_core::framework::{run_verification_in, RejectReason, Verdict};
use locert_core::schemes::common::id_bits_for;
use locert_core::{Assignment, Instance, Scheme};
use locert_graph::{generators, Graph, IdAssignment, NodeId};
use locert_par::Pool;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// FNV-1a digest of every verdict per catalogue id, in catalogue order.
const DIGESTS: [(&str, u64); 16] = [
    ("acyclicity", 0xcdf3a04727bd08bf),
    ("spanning-tree", 0xa6bf45bbe2db53f1),
    ("vertex-count", 0x255b510052f911c4),
    ("universal-connected", 0xc0696720e0e78b8d),
    ("tree-diameter-3", 0xafa7dc4bba42327f),
    ("treedepth-3", 0xc49112108f4394f6),
    ("tree-depth-bound-2", 0x886d237c0ca0b5fb),
    ("mso-perfect-matching", 0x989764daaef25f6a),
    ("mso-height-5", 0x0eff89dcade55f4e),
    ("word-no-11", 0xe0cc7960727e5f06),
    ("existential-triangle", 0x592fbda1440bbc16),
    ("depth2-dominating", 0x259e7cdf715b82f1),
    ("path-minor-free-4", 0x838720545dbb90e7),
    ("ct-minor-free-3", 0xd57eac9f27596124),
    ("kernel-triangle-free", 0x67ecb52fcbb41d0b),
    ("and-acyclic-count", 0x70ae992f062cc239),
];

struct Fnv(u64);

impl Fnv {
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn verdict(&mut self, reason: Option<RejectReason>, bits_read: usize) {
        self.eat(reason.map_or("accept", |r| r.code()).as_bytes());
        self.eat(&[0xff]);
        self.eat(&(bits_read as u64).to_le_bytes());
    }
}

/// `cert` cut to its first `len` bits.
fn truncated(cert: &Certificate, len: usize) -> Certificate {
    BitReader::new(cert)
        .read_cert(len)
        .expect("len within the certificate")
}

/// A certificate of `len` seeded random bits.
fn garbage(len: usize, rng: &mut StdRng) -> Certificate {
    let mut w = BitWriter::new();
    for _ in 0..len {
        w.write_bit(rng.random_bool(0.5));
    }
    w.finish()
}

/// `base` and seeded mutations of it, on a graph with `g`'s adjacency.
fn mutations(g: &Graph, base: &Assignment, rng: &mut StdRng) -> Vec<Assignment> {
    let n = g.num_nodes();
    let certs: Vec<Certificate> = (0..base.len())
        .map(|v| base.cert(NodeId(v)).clone())
        .collect();
    let mut out = vec![base.clone(), Assignment::from_unpacked(certs.clone())];
    let pick = |rng: &mut StdRng| NodeId(rng.random_range(0..n));
    for trial in 0..12 {
        let mut asg = base.clone();
        let v = pick(rng);
        let cert = base.cert(v).clone();
        let len = cert.len_bits();
        match trial {
            // Bit flips, one unpacked.
            0..=3 if len > 0 => {
                *asg.cert_mut(v) = cert.with_bit_flipped(rng.random_range(0..len));
                if trial == 3 {
                    let mut flipped = certs.clone();
                    flipped.resize(n.max(certs.len()), Certificate::empty());
                    flipped[v.0] = asg.cert(v).clone();
                    asg = Assignment::from_unpacked(flipped);
                }
            }
            // Truncations.
            4 | 5 if len > 0 => *asg.cert_mut(v) = truncated(&cert, rng.random_range(0..len)),
            // Two certificates swapped.
            6 => {
                let u = pick(rng);
                *asg.cert_mut(v) = base.cert(u).clone();
                *asg.cert_mut(u) = cert;
            }
            // A certificate copied onto a neighbor.
            7 if g.degree(v) > 0 => {
                let w = g.neighbors(v)[rng.random_range(0..g.degree(v))];
                *asg.cert_mut(w) = cert;
            }
            // The same bit flipped in every copy long enough to have it.
            8 if len > 0 => {
                let at = rng.random_range(0..len);
                let flipped: Vec<_> = certs
                    .iter()
                    .map(|c| {
                        if at < c.len_bits() {
                            c.with_bit_flipped(at)
                        } else {
                            c.clone()
                        }
                    })
                    .collect();
                asg = Assignment::new(flipped);
            }
            // Random bits, short and long.
            9 => *asg.cert_mut(v) = garbage(rng.random_range(0..=len / 2 + 2), rng),
            10 => *asg.cert_mut(v) = garbage(len + rng.random_range(0..8usize), rng),
            // An assignment shorter than n.
            11 => {
                let keep = n.saturating_sub(1 + rng.random_range(0..n.div_ceil(2)));
                asg = Assignment::new(&certs[..keep.min(certs.len())]);
            }
            // Empty certificate where the mutation had nothing to bite.
            _ => *asg.cert_mut(v) = Certificate::empty(),
        }
        out.push(asg);
    }
    out
}

/// Every vertex's verdict from the prepared per-vertex path.
fn per_vertex(scheme: &dyn Scheme, inst: &Instance<'_>, asg: &Assignment) -> Vec<Verdict> {
    let g = inst.graph();
    let certs: Vec<Certificate> = g.nodes().map(|v| asg.cert(v).clone()).collect();
    let prepared = scheme.prepare(&certs);
    g.nodes()
        .map(|v| {
            let reason = prepared.decide_at(inst, v, |u| u.0).err();
            let bits_read = certs[v.0].len_bits()
                + g.neighbors(v)
                    .iter()
                    .map(|&u| certs[u.0].len_bits())
                    .sum::<usize>();
            Verdict {
                accepted: reason.is_none(),
                reason,
                bits_read,
            }
        })
        .collect()
}

/// Every vertex's verdict from the prepared per-vertex path, after
/// checking that the run path gives the same verdicts on every pool;
/// `what` names the case in a failure.
fn run_paths_alike(
    what: &str,
    scheme: &dyn Scheme,
    inst: &Instance<'_>,
    asg: &Assignment,
    pools: &[Pool],
) -> Vec<Verdict> {
    let expected = per_vertex(scheme, inst, asg);
    for pool in pools {
        let got = run_verification_in(pool, scheme, inst, asg);
        for (v, (g, e)) in got.verdicts().iter().zip(&expected).enumerate() {
            assert_eq!(
                g,
                e,
                "{what}, n = {}, vertex {v}, {} workers",
                inst.graph().num_nodes(),
                pool.threads()
            );
        }
        assert_eq!(got.verdicts().len(), expected.len());
    }
    expected
}

/// Checks the three paths on every mutation of `base` under `inst`,
/// feeding the verdicts into `digest`; returns how many verdicts
/// rejected.
fn check(
    id: &str,
    scheme: &dyn Scheme,
    inst: &Instance<'_>,
    base: &Assignment,
    pools: &[Pool],
    rng: &mut StdRng,
    digest: &mut Fnv,
) -> usize {
    let mut rejections = 0;
    for (m, asg) in mutations(inst.graph(), base, rng).iter().enumerate() {
        let expected = run_paths_alike(&format!("{id}: mutation {m}"), scheme, inst, asg, pools);
        let faulted = run_with_faults(scheme, inst, asg, &FaultPlan::new(0));
        let rejected: Vec<(NodeId, RejectReason)> = expected
            .iter()
            .enumerate()
            .filter_map(|(v, e)| Some((NodeId(v), e.reason?)))
            .collect();
        let detected: Vec<(NodeId, RejectReason)> = faulted
            .detections
            .iter()
            .map(|d| (d.vertex, d.reason))
            .collect();
        assert_eq!(
            detected,
            rejected,
            "{id}: n = {}, mutation {m}, fault path",
            inst.graph().num_nodes()
        );
        for verdict in &expected {
            digest.verdict(verdict.reason, verdict.bits_read);
            rejections += usize::from(!verdict.accepted);
        }
    }
    rejections
}

#[test]
fn run_path_equals_per_vertex_decide_for_every_catalogue_id() {
    let pools = [Pool::new(1), Pool::new(4)];
    let mut mismatched = Vec::new();
    for (entry, &(id, pinned)) in catalogue::entries().iter().zip(&DIGESTS) {
        assert_eq!(entry.id, id, "digest table follows catalogue order");
        let mut rng = StdRng::seed_from_u64(0xdec0de ^ id.len() as u64);
        let mut digest = Fnv(0xcbf29ce484222325);
        let mut rejections = 0;
        for n in [5usize, 9, 16, 40] {
            // The canonical family instance with its honest assignment.
            let (g, inputs) = (entry.family)(n);
            let ids = IdAssignment::shuffled(g.num_nodes(), &mut rng);
            let inst = match &inputs {
                Some(word) => Instance::with_inputs(&g, &ids, word),
                None => Instance::new(&g, &ids),
            };
            let scheme = (entry.build)(id_bits_for(&inst), g.num_nodes());
            let honest = scheme
                .assign(&inst)
                .expect("family instances are yes-instances");
            rejections += check(
                id,
                scheme.as_ref(),
                &inst,
                &honest,
                &pools,
                &mut rng,
                &mut digest,
            );
            // Seeded other graphs: certified honestly where the prover
            // succeeds, else the family assignment replayed on them.
            for other in [
                generators::random_tree(n, &mut rng),
                generators::random_connected(n, n / 3, &mut rng),
            ] {
                let ids = IdAssignment::shuffled(n, &mut rng);
                let word: Vec<usize> = (0..n).map(|_| rng.random_range(0..3)).collect();
                let inst = match inputs {
                    Some(_) => Instance::with_inputs(&other, &ids, &word),
                    None => Instance::new(&other, &ids),
                };
                let scheme = (entry.build)(id_bits_for(&inst), n);
                let base = scheme.assign(&inst).unwrap_or_else(|_| {
                    Assignment::new(
                        (0..n)
                            .map(|v| honest.cert(NodeId(v)).clone())
                            .collect::<Vec<_>>(),
                    )
                });
                rejections += check(
                    id,
                    scheme.as_ref(),
                    &inst,
                    &base,
                    &pools,
                    &mut rng,
                    &mut digest,
                );
            }
        }
        assert!(rejections > 0, "{id}: mutations never rejected");
        if digest.0 != pinned {
            mismatched.push(format!("(\"{id}\", {:#018x}),", digest.0));
        }
    }
    assert!(
        mismatched.is_empty(),
        "verdict digests moved:\n{}",
        mismatched.join("\n")
    );
}

/// The ways [`composite_windows_decide_as_before`] breaks a certificate
/// of `and-acyclic-count`: a 16-bit length header, then the first part,
/// then the second.
fn conjunction_cases(cert: &Certificate) -> Vec<(&'static str, Certificate)> {
    let mut r = BitReader::new(cert);
    let len_a = r.read(16).expect("an honest header") as usize;
    let first = r.read_cert(len_a).expect("an honest first part");
    let second = r.read_cert(r.remaining()).expect("the rest");
    let parts = |header: u64, parts: &[&Certificate]| {
        let mut w = BitWriter::new();
        w.write(header, 16);
        for part in parts {
            w.write_cert(part);
        }
        w.finish()
    };
    let body = (len_a + second.len_bits()) as u64;
    vec![
        (
            "header one past the end",
            parts(body + 1, &[&first, &second]),
        ),
        ("header at its maximum", parts(0xffff, &[&first, &second])),
        ("header cut short", truncated(cert, 10)),
        ("zero-length first part", parts(0, &[&first, &second])),
        ("zero-length first part alone", parts(0, &[&second])),
        ("empty second part", parts(body, &[&first, &second])),
        (
            "first part one bit short",
            parts(len_a as u64 - 1, &[&first, &second]),
        ),
    ]
}

/// The ways [`composite_windows_decide_as_before`] breaks a certificate
/// of `ct-minor-free-3`: a 16-bit block count, then per block two
/// `id_bits` block ids, a 20-bit length and that many bits of the block's
/// sub-certificate.
fn block_cases(cert: &Certificate, id_bits: u32) -> Vec<(&'static str, Certificate)> {
    let mut r = BitReader::new(cert);
    let count = r.read(16).expect("an honest count");
    let ids = (r.read(id_bits).unwrap(), r.read(id_bits).unwrap());
    let len = r.read(20).expect("an honest block length") as usize;
    let sub = r.read_cert(len).expect("an honest sub-certificate");
    let rest = r.read_cert(r.remaining()).expect("the other blocks");
    let first_block = |count: u64, len: u64, sub: &Certificate| {
        let mut w = BitWriter::new();
        w.write(count, 16)
            .write(ids.0, id_bits)
            .write(ids.1, id_bits);
        w.write(len, 20).write_cert(sub).write_cert(&rest);
        w.finish()
    };
    let half = truncated(&sub, len / 2);
    let past = (len + rest.len_bits() + 1) as u64;
    vec![
        ("block past the end", first_block(count, past, &sub)),
        (
            "zero-length block",
            first_block(count, 0, &Certificate::empty()),
        ),
        (
            "truncated block",
            first_block(count, (len / 2) as u64, &half),
        ),
        (
            "block one bit long",
            first_block(count, len as u64 + 1, &sub),
        ),
        (
            "count past the blocks",
            first_block(count + 1, len as u64, &sub),
        ),
        (
            "cut inside a block header",
            truncated(cert, 16 + id_bits as usize),
        ),
        ("cut inside a block", truncated(cert, cert.len_bits() - 1)),
    ]
}

/// FNV-1a digests of the verdicts of [`composite_windows_decide_as_before`],
/// computed on the code that copied each part out of its certificate
/// before decoding it.
const WINDOW_DIGESTS: [(&str, u64); 2] = [
    ("and-acyclic-count", 0x3c9b3ffb00c4fcfd),
    ("ct-minor-free-3", 0xd9b7b77a918e694a),
];

/// The composites that decode their parts from windows of one
/// certificate (`AndScheme`, `CtMinorFreeScheme`) reject broken headers,
/// empty parts and truncated blocks with the verdicts, reasons included,
/// of the code that copied each part out first; the run path and the
/// prepared path agree on each.
#[test]
fn composite_windows_decide_as_before() {
    let pools = [Pool::new(1), Pool::new(4)];
    let mut mismatched = Vec::new();
    for (id, pinned) in WINDOW_DIGESTS {
        let entry = catalogue::by_id(id).expect("a catalogue id");
        let mut digest = Fnv(0xcbf29ce484222325);
        let mut rejections = 0;
        for n in [4usize, 7, 12] {
            let (g, _) = (entry.family)(n);
            let ids = IdAssignment::contiguous(n);
            let inst = Instance::new(&g, &ids);
            let id_bits = id_bits_for(&inst);
            let scheme = (entry.build)(id_bits, n);
            let honest = scheme.assign(&inst).expect("a yes-instance");
            for v in [0, n / 2, n - 1].map(NodeId) {
                let cases = match id {
                    "and-acyclic-count" => conjunction_cases(honest.cert(v)),
                    _ => block_cases(honest.cert(v), id_bits),
                };
                for (case, cert) in cases {
                    let mut asg = honest.clone();
                    *asg.cert_mut(v) = cert;
                    let what = format!("{id}: {case} at vertex {}", v.0);
                    let verdicts = run_paths_alike(&what, scheme.as_ref(), &inst, &asg, &pools);
                    assert!(verdicts.iter().any(|v| !v.accepted), "{what}: accepted");
                    for verdict in &verdicts {
                        digest.verdict(verdict.reason, verdict.bits_read);
                        rejections += usize::from(!verdict.accepted);
                    }
                }
            }
        }
        assert!(rejections > 0);
        if digest.0 != pinned {
            mismatched.push(format!("(\"{id}\", {:#018x}),", digest.0));
        }
    }
    assert!(
        mismatched.is_empty(),
        "verdict digests moved:\n{}",
        mismatched.join("\n")
    );
}
