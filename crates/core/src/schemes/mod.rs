//! Every certification scheme from the paper, one module per result.

pub mod acyclicity;
pub mod combinators;
pub mod common;
pub mod depth2_fo;
pub mod existential_fo;
pub mod kernel_mso;
pub mod minor_free;
pub mod mso_tree;
pub mod spanning_tree;
pub mod tree_depth_bound;
pub mod tree_diameter;
pub mod treedepth;
pub mod universal;
pub mod word_path;

#[cfg(test)]
mod tests {
    use crate::bits::BitReader;
    use crate::catalogue;
    use crate::framework::{Decode, Instance, Prover};
    use crate::schemes::common::id_bits_for;
    use crate::schemes::existential_fo::ExistentialFoScheme;
    use crate::schemes::kernel_mso::{KernelCert, KernelMsoScheme};
    use crate::schemes::minor_free::{CtCert, CtMinorFreeScheme, PathMinorFreeScheme};
    use crate::schemes::universal::UniversalScheme;
    use locert_graph::{generators, traversal, Graph, IdAssignment};
    use locert_logic::props;

    /// The decodes of `g`'s honest assignment, made with one cache as a
    /// run makes them.
    fn honest_decodes<S: Prover + Decode>(
        g: &Graph,
        build: impl FnOnce(u32) -> S,
    ) -> Vec<S::Decoded> {
        let ids = IdAssignment::contiguous(g.num_nodes());
        let inst = Instance::new(g, &ids);
        let scheme = build(id_bits_for(&inst));
        let asg = scheme.assign(&inst).unwrap();
        let cache = S::Cache::default();
        g.nodes()
            .map(|v| scheme.decode(BitReader::new(asg.cert(v)), &cache))
            .collect()
    }

    fn family(id: &str) -> Graph {
        (catalogue::by_id(id).unwrap().family)(16384).0
    }

    fn table_kept(decoded: &Option<KernelCert>) -> bool {
        decoded.as_ref().is_some_and(|kc| kc.table.is_kept())
    }

    #[test]
    fn honest_runs_keep_every_parse_under_the_memo_cap() {
        let dense = honest_decodes(&generators::clique(48), |b| {
            UniversalScheme::new(b, "universal-connected", |g| g.is_connected())
        });
        assert!(dense.iter().all(|d| d.map.is_kept()), "universal-connected");
        let sparse = honest_decodes(&generators::star(512), |b| {
            UniversalScheme::new(b, "diameter<=2", |g| {
                traversal::diameter(g).is_some_and(|d| d <= 2)
            })
            .sparse()
        });
        assert!(sparse.iter().all(|d| d.map.is_kept()), "sparse universal");
        let claims = honest_decodes(&family("existential-triangle"), |b| {
            ExistentialFoScheme::new(b, &props::has_clique(3)).unwrap()
        });
        assert!(
            claims
                .iter()
                .all(|d| d.as_ref().is_some_and(|c| c.claim.is_kept())),
            "existential-triangle"
        );
        let kernel = honest_decodes(&family("kernel-triangle-free"), |b| {
            KernelMsoScheme::new(b, 3, props::triangle_free()).unwrap()
        });
        assert!(kernel.iter().all(table_kept), "kernel-triangle-free");
        let path = honest_decodes(&family("path-minor-free-4"), |b| {
            PathMinorFreeScheme::new(b, 4)
        });
        assert!(path.iter().all(table_kept), "path-minor-free-4");
        let ct = honest_decodes(&family("ct-minor-free-3"), |b| CtMinorFreeScheme::new(b, 3));
        assert!(
            ct.iter().all(|d| match d {
                CtCert::Blocks(blocks) => blocks
                    .blocks()
                    .all(|(at, _)| blocks.sub(at).is_some_and(|sub| sub.table.is_kept())),
                CtCert::Bits(_) => false,
            }),
            "ct-minor-free-3"
        );
    }
}
