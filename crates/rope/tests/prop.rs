//! Property-based tests for the rope invariants the evaluators rely on.

use paragram_rope::{Descriptor, Rope, SegmentId, SegmentStore};
use proptest::prelude::*;

fn rope_strategy() -> impl Strategy<Value = (Rope, String)> {
    // Build a rope from a sequence of concat operations and track the
    // reference string alongside.
    prop::collection::vec("[a-z0-9\n]{0,12}", 0..24).prop_map(|parts| {
        let mut rope = Rope::new();
        let mut s = String::new();
        for p in parts {
            rope.push_str(&p);
            s.push_str(&p);
        }
        (rope, s)
    })
}

proptest! {
    #[test]
    fn rope_matches_reference_string((rope, s) in rope_strategy()) {
        prop_assert_eq!(rope.to_string(), s.clone());
        prop_assert_eq!(rope.len(), s.len());
        prop_assert_eq!(rope.is_empty(), s.is_empty());
        prop_assert_eq!(rope.newline_count(), s.bytes().filter(|&b| b == b'\n').count());
    }

    #[test]
    fn concat_associativity((a, sa) in rope_strategy(),
                            (b, sb) in rope_strategy(),
                            (c, sc) in rope_strategy()) {
        let left = a.concat(&b).concat(&c);
        let right = a.concat(&b.concat(&c));
        prop_assert_eq!(left.clone(), right);
        prop_assert_eq!(left.to_string(), format!("{sa}{sb}{sc}"));
    }

    #[test]
    fn rebalance_is_content_preserving((rope, s) in rope_strategy()) {
        let balanced = rope.rebalance();
        prop_assert_eq!(balanced.to_string(), s);
        prop_assert!(balanced.depth() <= rope.depth().max(2));
    }

    #[test]
    fn byte_at_agrees_with_string((rope, s) in rope_strategy()) {
        for (i, b) in s.bytes().enumerate() {
            prop_assert_eq!(rope.byte_at(i), Some(b));
        }
        prop_assert_eq!(rope.byte_at(s.len()), None);
    }

    #[test]
    fn lines_agree_with_str_lines((rope, s) in rope_strategy()) {
        let got: Vec<String> = rope.lines().collect();
        let want: Vec<String> = s.lines().map(str::to_owned).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn librarian_round_trip(texts in prop::collection::vec("[a-z]{0,16}", 1..8)) {
        // Registering each piece as a segment and resolving the combined
        // descriptor must equal direct concatenation — the librarian
        // optimization may not change the final code attribute.
        let mut store = SegmentStore::new();
        let mut descriptor = Descriptor::Empty;
        let mut direct = Rope::new();
        for (i, t) in texts.iter().enumerate() {
            let id = SegmentId::from_parts(i as u32, 0);
            store.register(id, Rope::from(t.as_str()));
            descriptor = descriptor.concat(&Descriptor::Seg(id));
            direct.push_str(t);
        }
        let resolved = store.resolve(&descriptor).unwrap();
        prop_assert_eq!(resolved, direct);
    }
}

/// Text pieces whose lengths straddle the merge bound, as a code
/// generator's lines and an inflated child's segment text would.
fn bound_straddling_parts() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(
        prop_oneof!["[a-z\n]{0,24}", "[a-z\n]{200,300}", "[a-z\n]{500,600}"],
        0..24,
    )
}

/// Builds `parts` as a balanced tree of concatenations, which exercises
/// the leaf + `Cat(leaf, R)` merge as well as the appending shapes.
fn balanced(parts: &[String]) -> Rope {
    match parts.len() {
        0 => Rope::new(),
        1 => Rope::from(parts[0].as_str()),
        n => balanced(&parts[..n / 2]).concat(&balanced(&parts[n / 2..])),
    }
}

proptest! {
    #[test]
    fn coalescing_preserves_text_len_and_content_eq(parts in bound_straddling_parts()) {
        let text: String = parts.concat();
        let appended = parts.iter().fold(Rope::new(), |acc, p| acc.concat(&Rope::from(p.as_str())));
        let prepended = parts
            .iter()
            .rev()
            .fold(Rope::new(), |acc, p| Rope::from(p.as_str()).concat(&acc));
        let tree = balanced(&parts);
        for r in [&appended, &prepended, &tree] {
            prop_assert_eq!(r.to_string(), text.clone());
            prop_assert_eq!(r.len(), text.len());
            prop_assert!(r.content_eq(&Rope::from(text.as_str())));
            prop_assert!(r.content_eq(&appended));
            prop_assert_eq!(r.physical_wire_size(), text.len() + 8);
        }
        // Merging never leaves two adjacent leaves that would both fit
        // one chunk on the appending path.
        let leaves: Vec<&str> = appended.chunks().collect();
        for w in leaves.windows(2) {
            prop_assert!(w[0].len() + w[1].len() > paragram_rope::CHUNK_BYTES);
        }
    }

    #[test]
    fn cached_wire_size_and_segment_bit_equal_a_full_walk(
        parts in prop::collection::vec(
            prop_oneof![
                "[a-z]{0,40}".prop_map(|t| (t, 0usize)),
                "[a-z]{500,600}".prop_map(|t| (t, 0usize)),
                (1usize..2000).prop_map(|n| (String::new(), n)),
            ],
            0..16,
        ),
        split in 0usize..16,
    ) {
        let piece = |(i, (t, seg)): (usize, &(String, usize))| {
            if *seg > 0 {
                Rope::seg(SegmentId::from_parts(1, i as u32), *seg)
            } else {
                Rope::from(t.as_str())
            }
        };
        let ropes: Vec<Rope> = parts.iter().enumerate().map(piece).collect();
        let cut = split.min(ropes.len());
        let left = ropes[..cut].iter().fold(Rope::new(), |acc, r| acc.concat(r));
        let right = ropes[cut..].iter().rev().fold(Rope::new(), |acc, r| r.concat(&acc));
        let rope = left.concat(&right);
        // The walk: text runs and references, as the wire carries them.
        let pieces = rope.pieces();
        let walked = 8 + pieces
            .iter()
            .map(|p| match p {
                paragram_rope::Piece::Text(t) => t.len(),
                paragram_rope::Piece::Seg(..) => 9,
            })
            .sum::<usize>();
        let has_segs = pieces.iter().any(|p| matches!(p, paragram_rope::Piece::Seg(..)));
        prop_assert_eq!(rope.physical_wire_size(), walked);
        prop_assert_eq!(rope.has_segments(), has_segs);
        prop_assert_eq!(left.has_segments() || right.has_segments(), has_segs);
        let logical: usize = parts.iter().map(|(t, seg)| t.len() + seg).sum();
        prop_assert_eq!(rope.len(), logical);
    }
}
