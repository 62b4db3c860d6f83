//! Input generation: every workload's instance, goals and update stream,
//! derived from `--seed` alone. The same seed gives the same inputs; the
//! program under test only ever sees the generated values.

use stuc::core::workloads;
use stuc::data::instance::{ConstId, FactId};
use stuc::data::tid::TidInstance;
use stuc::incr::Delta;

/// `splitmix64`: the benchmark's own generator, so the inputs do not change
/// when the library's generators do.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_be9c_4a11_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound` > 0).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A probability in `[low, high]`, rounded to three decimals so that it
    /// prints the same in program text as it parses back.
    pub fn probability(&mut self, low: f64, high: f64) -> f64 {
        ((low + (high - low) * self.unit()) * 1000.0).round() / 1000.0
    }
}

/// Input sizes. `full()` is what the benchmark measures; `tiny()` keeps the
/// same shapes at a size a unit test can run in well under a second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Facts on the anchored-6k path.
    pub anchored_facts: usize,
    /// Anchored goals asked on the anchored-6k path.
    pub anchored_goals: usize,
    /// Vertices of the treelike-sweep partial 2-tree.
    pub tree_vertices: usize,
    /// Facts on the update-mix path.
    pub update_facts: usize,
    /// Standing queries of update-mix.
    pub update_queries: usize,
    /// Ops in one update-mix episode, each run on a fresh engine.
    pub update_episode_ops: u64,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            anchored_facts: 6000,
            anchored_goals: 16,
            tree_vertices: 200,
            update_facts: 2000,
            update_queries: 16,
            update_episode_ops: 1536,
        }
    }

    pub fn tiny() -> Sizes {
        Sizes {
            anchored_facts: 60,
            anchored_goals: 4,
            tree_vertices: 30,
            update_facts: 40,
            update_queries: 4,
            update_episode_ops: 32,
        }
    }
}

/// The serve-mix open loop's offered rate, requests per second. Fixed, so
/// that later commits are offered the same load. It is an eighth to a
/// quarter of the closed-loop saturation throughput (2 connections on a
/// shared 2-vCPU VM: 4,000–8,300 req/s as the VM's speed drifted). At half
/// of it, a slow spell of the VM overloaded the server and the open loop's
/// backlog grew without bound: a median latency of 915 ms in one run.
pub const SERVE_RATE: f64 = 1000.0;

// ---------------------------------------------------------------- serve-mix

/// The `stuc-loadgen` path program, verbatim: 60 facts
/// `0.5 :: R("vi", "vi+1")`.
pub fn serve_program() -> String {
    let mut program = String::new();
    for i in 0..60 {
        program.push_str(&format!("0.5 :: R(\"v{i}\", \"v{}\").\n", i + 1));
    }
    program
}

/// The `stuc-loadgen` goal mix, verbatim: six anchored 3-hop goals, the
/// safe scan and the unanchored 2-hop goal.
pub fn serve_goals() -> Vec<String> {
    let mut goals: Vec<String> = (0..6)
        .map(|k| format!("?- R(\"v{k}\", x), R(x, y), R(y, z)."))
        .collect();
    goals.push("?- R(x, y).".to_string());
    goals.push("?- R(x, y), R(y, z).".to_string());
    goals
}

/// The request sequence over the goal mix: consecutive rounds, each a
/// seeded permutation of the eight goals, so every goal is asked equally
/// often in every stretch of eight requests.
#[derive(Debug, Clone)]
pub struct RequestOrder {
    rounds: Vec<Vec<usize>>,
}

impl RequestOrder {
    pub fn new(seed: u64, goals: usize) -> RequestOrder {
        let mut rng = Rng::new(seed);
        let rounds = (0..64)
            .map(|_| {
                let mut round: Vec<usize> = (0..goals).collect();
                for i in (1..round.len()).rev() {
                    round.swap(i, rng.below(i + 1));
                }
                round
            })
            .collect();
        RequestOrder { rounds }
    }

    /// The goal asked by request `i`.
    pub fn goal(&self, i: usize) -> usize {
        let width = self.rounds[0].len();
        self.rounds[(i / width) % self.rounds.len()][i % width]
    }
}

// -------------------------------------------------------------- anchored-6k

/// The anchored-6k inputs: a path program `p :: R("vi", "vi+1")` and
/// anchored 3-hop goals spread evenly along it.
#[derive(Debug, Clone, PartialEq)]
pub struct AnchoredInputs {
    pub program: String,
    pub goals: Vec<String>,
}

pub fn anchored(seed: u64, sizes: &Sizes) -> AnchoredInputs {
    let mut rng = Rng::new(seed);
    let mut program = String::new();
    for i in 0..sizes.anchored_facts {
        let p = rng.probability(0.3, 0.7);
        program.push_str(&format!("{p} :: R(\"v{i}\", \"v{}\").\n", i + 1));
    }
    // One anchor per stretch of the path, at a seeded offset that leaves
    // room for the three hops.
    let stretch = sizes.anchored_facts / sizes.anchored_goals;
    let goals = (0..sizes.anchored_goals)
        .map(|g| {
            let anchor = g * stretch + rng.below(stretch - 3);
            format!("?- R(\"v{anchor}\", x), R(x, y), R(y, z).")
        })
        .collect();
    AnchoredInputs { program, goals }
}

// ----------------------------------------------------------- treelike-sweep

/// Generator seed of the treelike-sweep graph. The graph is fixed because
/// the sweep's cost is exponential in the lineage width, which differs by
/// an order of magnitude between generated graphs: varying it would make
/// the run-to-run spread measure the graph instead of the code. This seed
/// gives the 288-fact partial 2-tree whose warm goals have lineages of
/// about 620 and 1,200 gates, within the engine's width budget.
pub const TREE_GRAPH_SEED: u64 = 7;

/// Base probability of the treelike-sweep facts: low enough that the
/// unanchored 2-hop goal reads about 0.58, not 1.0.
pub const TREE_PROBABILITY: f64 = 0.05;

/// The treelike-sweep inputs: the partial 2-tree with seeded per-fact
/// probabilities around [`TREE_PROBABILITY`], and a program asking the
/// unanchored 2-hop goal and the 3-hop goal anchored at the constant with
/// the most outgoing facts.
#[derive(Debug, Clone)]
pub struct TreelikeInputs {
    pub instance: TidInstance,
    pub program: String,
}

pub fn treelike(seed: u64, sizes: &Sizes) -> TreelikeInputs {
    let mut instance =
        workloads::partial_k_tree_tid(sizes.tree_vertices, 2, TREE_PROBABILITY, TREE_GRAPH_SEED);
    let mut rng = Rng::new(seed);
    for f in 0..instance.fact_count() {
        let p = rng.probability(0.04, 0.06);
        instance.set_probability(FactId(f), p);
    }
    let anchor = {
        let facts = instance.instance();
        let mut out_degree = vec![0usize; facts.constant_count()];
        for (_, fact) in facts.facts() {
            out_degree[fact.args[0].0] += 1;
        }
        let best = (0..out_degree.len())
            .max_by_key(|&c| (out_degree[c], std::cmp::Reverse(c)))
            .expect("the generated graph has vertices");
        facts.constant_name(ConstId(best)).to_string()
    };
    let program = format!("?- R(x, y), R(y, z).\n?- R(\"{anchor}\", x), R(x, y), R(y, z).\n");
    TreelikeInputs { instance, program }
}

// --------------------------------------------------------------- update-mix

/// The update-mix inputs: `workloads::path_tid` over constants `c0…cn` and
/// the standing anchored 3-hop queries, spread along the path.
#[derive(Debug, Clone)]
pub struct UpdateInputs {
    pub instance: TidInstance,
    /// Anchor index `a` of each standing query `R("ca", x), R(x, y), R(y, z)`.
    pub anchors: Vec<usize>,
}

impl UpdateInputs {
    pub fn query_text(anchor: usize) -> String {
        format!("R(\"c{anchor}\", x), R(x, y), R(y, z)")
    }
}

pub fn update(seed: u64, sizes: &Sizes) -> UpdateInputs {
    let instance = workloads::path_tid(sizes.update_facts, 0.5, seed);
    let stretch = sizes.update_facts / sizes.update_queries;
    let mut rng = Rng::new(seed);
    let anchors = (0..sizes.update_queries)
        .map(|q| q * stretch + rng.below(stretch - 3))
        .collect();
    UpdateInputs { instance, anchors }
}

/// The update stream. Seven of every eight updates re-weight a seeded path
/// fact (`SetProbability`); the eighth alternately inserts a branch fact
/// `R("c(a+2)", "na")` under the anchor `a` of a standing query (a new
/// match for it), taking the standing queries in turn, and deletes that
/// insert again. The instance keeps its size within one fact and its
/// constants within one per standing query.
#[derive(Debug, Clone)]
pub struct UpdateStream {
    rng: Rng,
    path_facts: usize,
    anchors: Vec<usize>,
    issued: usize,
    branches: usize,
    outstanding: bool,
}

impl UpdateStream {
    /// The stream over a path of `path_facts` facts with standing queries
    /// anchored at `anchors`.
    pub fn new(seed: u64, path_facts: usize, anchors: &[usize]) -> UpdateStream {
        UpdateStream {
            rng: Rng::new(seed.wrapping_add(0x0bad_cafe)),
            path_facts,
            anchors: anchors.to_vec(),
            issued: 0,
            branches: 0,
            outstanding: false,
        }
    }

    /// The next delta. Fact ids refer to the instance as the previous
    /// deltas left it: the one branch insert, when present, is the last
    /// fact, so deleting it shifts no other id.
    pub fn next_delta(&mut self) -> Delta {
        self.issued += 1;
        // New probabilities keep full precision, like `path_tid`'s: the
        // instance's `Debug` rendering, which the engine hashes for its
        // identity, then keeps its length as facts are re-weighted.
        let p = 0.05 + 0.9 * self.rng.unit();
        if !self.issued.is_multiple_of(8) {
            let fact = FactId(self.rng.below(self.path_facts));
            return Delta::new().set_probability(fact, p);
        }
        if self.outstanding {
            self.outstanding = false;
            return Delta::new().delete(FactId(self.path_facts));
        }
        let anchor = self.anchors[self.branches % self.anchors.len()];
        let parent = format!("c{}", anchor + 2);
        let child = format!("n{anchor}");
        self.branches += 1;
        self.outstanding = true;
        Delta::new().insert("R", &[&parent, &child], p)
    }
}
