//! Seeded input generator over the `amos_workloads::spec` grammar.
//!
//! Every family has a bounded lattice of dimension values. A [`Gen`] hands
//! out each lattice point at most once, so every spec is unique by
//! construction: the L1 set, the L2 set and the never-seen specs of a run
//! are disjoint stretches of one sequence. The seed decides which point of
//! a family comes when and its exploration seed. It does not decide which
//! accelerator a point is explored on, or how many points of each family, or
//! how many requests for each accelerator, a stretch holds: the sequence
//! deals the families out evenly, so two seeds give the program the same
//! amount of work and a run is comparable with a run of another seed. The
//! program under test sees only the generated specs, seeds and order.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};

/// The eight real-machine accelerators of the catalog (the virtual and
/// `mini` machines are test fixtures, not targets).
pub const ACCELS: [&str; 8] = [
    "v100",
    "a100",
    "t4",
    "xeon-avx512",
    "mali-g76",
    "ascend-npu",
    "tpu-like",
    "gemmini-like",
];

type Dims = &'static [(&'static str, &'static [i64])];

/// One operator family of the grammar: its tag, whether dimensions are
/// written `AxBxC` or `key<value>,...`, and its two lattices.
struct Family {
    tag: &'static str,
    keyed: bool,
    /// Shapes of the size real networks use: what the daemon is asked for.
    dims: Dims,
    /// Shapes of at most 1e6 multiply-accumulates, small enough for the
    /// scalar interpreter in the correctness gate.
    small: Dims,
}

const FAMILIES: &[Family] = &[
    Family {
        tag: "gmm",
        keyed: false,
        dims: &[
            ("", &[32, 64, 128, 256, 512]),
            ("", &[32, 64, 96, 128, 256, 512]),
            ("", &[32, 64, 96, 128, 256, 512]),
        ],
        small: &[("", &[8, 16, 24, 40]), ("", &[8, 16, 24]), ("", &[16, 32])],
    },
    Family {
        tag: "gmv",
        keyed: false,
        dims: &[
            ("", &[256, 512, 768, 1024, 1536, 2048, 3072]),
            ("", &[256, 512, 768, 1024, 1536, 2048, 3072]),
        ],
        small: &[("", &[16, 40, 64]), ("", &[16, 32, 48])],
    },
    Family {
        tag: "men",
        keyed: false,
        dims: &[
            ("", &[32, 64, 128, 256, 512, 1024]),
            ("", &[64, 128, 256, 512, 768, 1024]),
        ],
        small: &[("", &[8, 24]), ("", &[16, 48])],
    },
    Family {
        tag: "var",
        keyed: false,
        // `var` and `men` build the same computation, so their row counts
        // are kept apart: no two specs may share a cache key.
        dims: &[
            ("", &[48, 96, 192, 384, 768, 1536]),
            ("", &[64, 128, 256, 512, 768, 1024]),
        ],
        small: &[("", &[12, 20]), ("", &[16, 48])],
    },
    Family {
        tag: "scn",
        keyed: false,
        dims: &[
            ("", &[32, 64, 128, 256, 512, 1024]),
            ("", &[32, 64, 128, 256, 512]),
        ],
        small: &[("", &[8, 24]), ("", &[16, 32])],
    },
    Family {
        tag: "c2d",
        keyed: true,
        dims: &[
            ("n", &[1, 4]),
            ("c", &[16, 32, 64, 128]),
            ("k", &[16, 32, 64, 128]),
            ("p", &[7, 14, 28]),
            ("r", &[1, 3]),
            ("st", &[1]),
        ],
        small: &[
            ("n", &[1, 2]),
            ("c", &[4, 8]),
            ("k", &[4, 8]),
            ("p", &[4, 6]),
            ("r", &[1, 3]),
            ("st", &[1, 2]),
        ],
    },
    Family {
        tag: "dep",
        keyed: true,
        dims: &[
            ("n", &[1]),
            ("c", &[32, 64, 96, 128, 256]),
            ("p", &[7, 14, 28, 56]),
            ("r", &[3, 5]),
        ],
        small: &[("n", &[1, 2]), ("c", &[4, 8]), ("p", &[5, 6]), ("r", &[3])],
    },
    Family {
        tag: "c3d",
        keyed: true,
        dims: &[
            ("n", &[1]),
            ("c", &[8, 16, 32]),
            ("k", &[8, 16, 32]),
            ("d", &[4, 8]),
            ("p", &[7, 14]),
        ],
        small: &[
            ("n", &[1]),
            ("c", &[2, 4]),
            ("k", &[4]),
            ("d", &[2, 3]),
            ("p", &[3, 4]),
        ],
    },
    Family {
        tag: "c1d",
        keyed: true,
        dims: &[
            ("n", &[1, 2]),
            ("c", &[32, 64, 128]),
            ("k", &[32, 64, 128]),
            ("q", &[64, 128, 256]),
            ("s", &[3, 5]),
            ("st", &[1]),
        ],
        small: &[
            ("n", &[1, 2]),
            ("c", &[4, 8]),
            ("k", &[4, 8]),
            ("q", &[8, 12]),
            ("s", &[3]),
            ("st", &[1, 2]),
        ],
    },
    Family {
        tag: "t2d",
        keyed: true,
        dims: &[
            ("n", &[1]),
            ("c", &[16, 32, 64]),
            ("k", &[16, 32, 64]),
            ("h", &[7, 14, 28]),
            ("r", &[3]),
        ],
        small: &[
            ("n", &[1]),
            ("c", &[2, 4]),
            ("k", &[2, 4]),
            ("h", &[3, 5]),
            ("r", &[3]),
        ],
    },
    Family {
        tag: "bcv",
        keyed: true,
        dims: &[
            ("n", &[4, 8]),
            ("c", &[8, 16, 32]),
            ("k", &[16, 32]),
            ("p", &[7, 14, 28]),
            ("r", &[3]),
        ],
        small: &[
            ("n", &[2, 3]),
            ("c", &[2, 4]),
            ("k", &[4]),
            ("p", &[3, 4]),
            ("r", &[3]),
        ],
    },
    Family {
        tag: "gfc",
        keyed: true,
        dims: &[
            ("b", &[8, 16]),
            ("g", &[2, 4, 8]),
            ("k", &[32, 64, 128]),
            ("c", &[32, 64, 128]),
        ],
        small: &[
            ("b", &[2, 4]),
            ("g", &[2, 3]),
            ("k", &[4, 8]),
            ("c", &[8, 16]),
        ],
    },
    Family {
        tag: "grp",
        keyed: true,
        dims: &[
            ("n", &[1]),
            ("g", &[2, 4, 8]),
            ("c", &[16, 32]),
            ("k", &[16, 32]),
            ("p", &[7, 14, 28]),
            ("r", &[1, 3]),
        ],
        small: &[
            ("n", &[1]),
            ("g", &[2, 3]),
            ("c", &[2, 4]),
            ("k", &[4]),
            ("p", &[3, 4]),
            ("r", &[1, 3]),
        ],
    },
];

fn lattice_size(dims: Dims) -> usize {
    dims.iter().map(|(_, values)| values.len()).product()
}

/// The spec of lattice point `index` (mixed radix, last dimension fastest).
fn render(family: &Family, dims: Dims, mut index: usize) -> String {
    let mut parts = vec![String::new(); dims.len()];
    for (slot, (key, values)) in dims.iter().enumerate().rev() {
        parts[slot] = format!("{key}{}", values[index % values.len()]);
        index /= values.len();
    }
    let sep = if family.keyed { "," } else { "x" };
    format!("{}:{}", family.tag, parts.join(sep))
}

/// Every spec of the large (`small == false`) or small lattices, family by
/// family — the population a seed permutes.
pub fn all_specs(small: bool) -> Vec<String> {
    let mut out = Vec::new();
    for family in FAMILIES {
        let dims = if small { family.small } else { family.dims };
        out.extend((0..lattice_size(dims)).map(|i| render(family, dims, i)));
    }
    out
}

/// One generated request: what the program under test is asked to explore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    pub spec: String,
    pub accel: &'static str,
    pub seed: u64,
}

/// The seeded stream of a run's inputs.
#[derive(Debug)]
pub struct Gen {
    rng: StdRng,
    /// Every lattice point with its accelerator, last one first.
    points: Vec<(String, &'static str)>,
}

impl Gen {
    /// A generator for `seed`; `salt` (the workload name) keeps two
    /// workloads from drawing the same stream.
    pub fn new(seed: u64, salt: &str) -> Gen {
        let mut rng = StdRng::seed_from_u64(seed ^ amos_core::fnv1a(salt));
        // A lattice point's accelerator is fixed by its index, so the
        // population of (spec, accelerator) pairs is the same for every
        // seed. Inside a family the seed shuffles the points of each
        // accelerator, and the family is dealt out with the accelerators
        // rotating, the j-th of its n points at (j + 1/2) / n of the way
        // through the sequence: any stretch holds every family and every
        // accelerator in proportion.
        let mut dealt = Vec::new();
        for (f, family) in FAMILIES.iter().enumerate() {
            let n = lattice_size(family.dims);
            let mut by_accel: [Vec<usize>; ACCELS.len()] = Default::default();
            for point in 0..n {
                by_accel[point % ACCELS.len()].push(point);
            }
            for points in &mut by_accel {
                points.shuffle(&mut rng);
            }
            for j in 0..n {
                // An accelerator that has run out passes its turn on.
                let mut a = (j + f) % ACCELS.len();
                while by_accel[a].is_empty() {
                    a = (a + 1) % ACCELS.len();
                }
                let point = by_accel[a].pop().expect("checked non-empty");
                let place = (j as f64 + 0.5) / n as f64;
                dealt.push((place, f, render(family, family.dims, point), ACCELS[a]));
            }
        }
        dealt.sort_by(|a, b| {
            (b.0, b.1)
                .partial_cmp(&(a.0, a.1))
                .expect("places are finite")
        });
        Gen {
            rng,
            points: dealt
                .into_iter()
                .map(|(_, _, spec, accel)| (spec, accel))
                .collect(),
        }
    }

    /// An exploration seed. 48 bits, because the wire protocol carries
    /// numbers as `f64` and must round-trip it.
    pub fn seed48(&mut self) -> u64 {
        self.rng.next_u64() >> 16
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        items.shuffle(&mut self.rng);
    }

    /// Uniform draw from `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.rng.next_u64() % n as u64) as usize
    }

    /// A request for a spec this generator has not handed out before.
    ///
    /// # Panics
    ///
    /// When the lattice is exhausted: workloads are sized below it.
    pub fn fresh(&mut self) -> Req {
        let (spec, accel) = self.points.pop().expect("spec lattice exhausted");
        Req {
            spec,
            accel,
            seed: self.seed48(),
        }
    }

    /// The next `n` fresh requests.
    pub fn take(&mut self, n: usize) -> Vec<Req> {
        (0..n).map(|_| self.fresh()).collect()
    }
}

/// `n` small specs for the correctness gate, cycling through the families
/// so at least `min(n, 13)` of them are covered.
pub fn small_specs(seed: u64, n: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed ^ amos_core::fnv1a("gate"));
    (0..n)
        .map(|i| {
            let family = &FAMILIES[i % FAMILIES.len()];
            let point = rng.next_u64() as usize % lattice_size(family.small);
            render(family, family.small, point)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use amos_workloads::spec::parse_spec;
    use std::collections::HashSet;

    fn draw(seed: u64, n: usize) -> Vec<Req> {
        Gen::new(seed, "t").take(n)
    }

    fn tag(req: &Req) -> &str {
        req.spec.split(':').next().unwrap()
    }

    #[test]
    fn same_seed_gives_a_byte_identical_input_list() {
        assert_eq!(
            format!("{:?}", draw(11, 300)),
            format!("{:?}", draw(11, 300))
        );
        assert_eq!(small_specs(11, 16), small_specs(11, 16));
    }

    #[test]
    fn two_seeds_differ() {
        assert_ne!(draw(11, 300), draw(12, 300));
        assert_ne!(small_specs(11, 16), small_specs(12, 16));
    }

    #[test]
    fn every_spec_parses_and_is_structurally_unique() {
        let mut seen = HashSet::new();
        for small in [false, true] {
            for spec in all_specs(small) {
                let def = parse_spec(&spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
                assert!(
                    seen.insert(amos_core::shape_fingerprint(&def)),
                    "{spec} repeats a shape"
                );
            }
        }
    }

    #[test]
    fn fresh_specs_never_repeat() {
        let total = all_specs(false).len();
        let reqs = draw(5, total);
        let distinct: HashSet<&str> = reqs.iter().map(|r| r.spec.as_str()).collect();
        assert_eq!(distinct.len(), total);
        assert!(reqs.iter().all(|r| r.seed < 1 << 48));
    }

    #[test]
    fn every_stretch_holds_the_same_mix_for_every_seed() {
        let count = |reqs: &[Req], f: &dyn Fn(&Req) -> bool| reqs.iter().filter(|r| f(r)).count();
        let (a, b) = (draw(1, 700), draw(2, 700));
        for stretch in [0..64, 64..364, 364..700] {
            let (a, b) = (&a[stretch.clone()], &b[stretch]);
            for family in FAMILIES {
                let of_family = |r: &Req| tag(r) == family.tag;
                let (na, nb) = (count(a, &of_family), count(b, &of_family));
                assert!(na.abs_diff(nb) <= 1, "{}: {na} vs {nb}", family.tag);
            }
            for accel in ACCELS {
                let on_accel = |r: &Req| r.accel == accel;
                let (na, nb) = (count(a, &on_accel), count(b, &on_accel));
                assert!(na.abs_diff(nb) <= FAMILIES.len(), "{accel}: {na} vs {nb}");
            }
        }
    }

    #[test]
    fn small_specs_fit_the_interpreter_and_cover_the_families() {
        for spec in all_specs(true) {
            let def = parse_spec(&spec).unwrap();
            assert!(def.domain_size() <= 1_000_000, "{spec} is too large");
        }
        let tags: HashSet<String> = small_specs(3, 16)
            .iter()
            .map(|s| s.split(':').next().unwrap().to_string())
            .collect();
        assert_eq!(tags.len(), FAMILIES.len());
    }
}
