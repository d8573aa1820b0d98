//! Seeded workload inputs. Everything here is a pure function of the
//! run's `--seed`: the same seed gives byte-identical sources and the
//! same request sequence.

use paragram_bench::stream::SizeClass;
use paragram_pascal::generator::{generate, GenConfig};

/// splitmix64: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `i`-th program of a `huge_single` run: a distinct
/// [`GenConfig::huge`] program (~900 KB of source).
pub fn huge_program(seed: u64, i: u64) -> String {
    generate(&GenConfig {
        seed: mix(seed, 0x4855_4745_0000_0000 + i),
        ..GenConfig::huge()
    })
}

/// A paper-shaped program (≈2000 lines, ≈60 procedures) of a run.
pub fn paper_shaped(seed: u64) -> String {
    generate(&GenConfig {
        seed: mix(seed, 0x5041_5045_5200_0000),
        ..GenConfig::paper()
    })
}

/// The paper's measurement program: [`GenConfig::paper`] with its own
/// fixed seed.
pub fn paper_program() -> String {
    generate(&GenConfig::paper())
}

/// A seeded permutation of `0..n` (Fisher–Yates over splitmix64).
pub fn permutation(seed: u64, salt: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed, salt.wrapping_add(i as u64)) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Programs in one `dup_closed` request: the units of a project.
pub const PROJECT_UNITS: usize = 32;

/// The size class of unit `j`: procedure- and unit-sized, 3 to 1.
fn unit_class(j: usize) -> SizeClass {
    if j % 4 == 3 {
        SizeClass::Unit
    } else {
        SizeClass::Proc
    }
}

/// The unchanged source of unit `j` of the `dup_closed` project: fixed,
/// the same in every run.
pub fn template_program(j: usize) -> String {
    generate(&unit_class(j).gen_config(mix(0, 0x5445_4d50_0000_0000 + j as u64)))
}

/// What unit `j` of the `i`-th `dup_closed` request sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DupPick {
    /// The unit's template, again.
    Template,
    /// An edited unit: a program of its own, seeded by the value.
    Distinct(u64),
}

/// Unit `j` of the `i`-th `dup_closed` request: one in ten (seeded) is
/// a distinct program, the others are the unit's template.
pub fn dup_pick(seed: u64, i: u64, j: usize) -> DupPick {
    let r = mix(seed, 0x4455_5000_0000_0000 + (i << 8) + j as u64);
    if r.is_multiple_of(10) {
        DupPick::Distinct(mix(r, i))
    } else {
        DupPick::Template
    }
}

/// The source of unit `j` when [`dup_pick`] gives `Distinct(seed)`.
pub fn distinct_program(j: usize, seed: u64) -> String {
    generate(&unit_class(j).gen_config(seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn picks(seed: u64, requests: u64) -> Vec<DupPick> {
        (0..requests)
            .flat_map(|i| (0..PROJECT_UNITS).map(move |j| dup_pick(seed, i, j)))
            .collect()
    }

    #[test]
    fn the_same_seed_gives_identical_inputs() {
        assert_eq!(huge_program(7, 0), huge_program(7, 0));
        assert_eq!(paper_shaped(7), paper_shaped(7));
        assert_eq!(permutation(7, 3, 16), permutation(7, 3, 16));
        assert_eq!(picks(7, 20), picks(7, 20));
        assert_eq!(template_program(1), template_program(1));
        assert_eq!(distinct_program(3, 5), distinct_program(3, 5));
    }

    #[test]
    fn seeds_give_distinct_inputs() {
        assert_ne!(huge_program(7, 0), huge_program(8, 0));
        assert_ne!(huge_program(7, 0), huge_program(7, 1));
        assert_ne!(paper_shaped(7), paper_shaped(8));
        assert_ne!(permutation(7, 3, 16), permutation(8, 3, 16));
        let mut p = permutation(7, 3, 16);
        p.sort_unstable();
        assert_eq!(p, (0..16).collect::<Vec<_>>());
        assert_ne!(picks(7, 20), picks(8, 20));
        assert_ne!(template_program(0), template_program(1));
    }

    #[test]
    fn one_unit_in_ten_is_edited_and_every_edit_is_new() {
        let p = picks(3, 40);
        let mut edits: Vec<u64> = p
            .iter()
            .filter_map(|pick| match *pick {
                DupPick::Distinct(s) => Some(s),
                DupPick::Template => None,
            })
            .collect();
        let share = edits.len() as f64 / p.len() as f64;
        assert!((0.07..0.13).contains(&share), "edited share {share}");
        let n = edits.len();
        edits.sort_unstable();
        edits.dedup();
        assert_eq!(edits.len(), n);
    }
}
