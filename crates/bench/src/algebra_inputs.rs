//! Solution-set construction for experiment E23: solution sets
//! materialized from workload-generator triples exactly as a storage
//! node would produce them for a single triple pattern (one mapping per
//! matching triple).

use rdfmesh_rdf::{vocab, Term, Triple, Variable};
use rdfmesh_sparql::Solution;
use rdfmesh_workload::{foaf, FoafConfig};

fn bindings_of(triples: &[Triple], predicate: &str, subj: &str, obj: &str) -> Vec<Solution> {
    let p = Term::iri(predicate);
    triples
        .iter()
        .filter(|t| t.predicate == p)
        .map(|t| {
            Solution::from_pairs([
                (Variable::new(subj), t.subject.clone()),
                (Variable::new(obj), t.object.clone()),
            ])
        })
        .collect()
}

/// Join inputs at FOAF scale: `?x knows ?y` ⋈ `?x name ?n` over a
/// `persons`-sized social network — the Fig. 6 friend-lookup shape.
pub fn foaf_join_inputs(persons: usize) -> (Vec<Solution>, Vec<Solution>) {
    let cfg = FoafConfig { persons, peers: 8, seed: 7, ..FoafConfig::default() };
    let data = foaf::generate(&cfg);
    let all: Vec<Triple> = data.peers.into_iter().flatten().collect();
    let left = bindings_of(&all, vocab::foaf::KNOWS, "x", "y");
    let right = bindings_of(&all, vocab::foaf::NAME, "x", "n");
    (left, right)
}
