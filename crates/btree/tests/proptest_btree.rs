//! Property-based tests of the B+Tree's nodes: page encoding
//! round-trips and leaf splits keep every entry in order. The engine's
//! model check runs over every registered engine
//! (`tests/proptest_engines.rs` at the workspace root); the unit
//! `model_check_against_btreemap` holds `verify()` across checkpoints.

use proptest::prelude::*;

use ptsbench_btree::node::Node;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Node encoding round-trips arbitrary leaves and internals.
    #[test]
    fn node_encoding_round_trips(
        leaf_entries in proptest::collection::btree_map(
            proptest::collection::vec(any::<u8>(), 1..20),
            proptest::collection::vec(any::<u8>(), 0..100),
            0..50,
        ),
        children in proptest::collection::vec(1u64..1_000_000, 1..30),
    ) {
        let leaf = Node::Leaf {
            entries: leaf_entries.into_iter().collect(),
        };
        let mut buf = Vec::new();
        leaf.encode(&mut buf);
        prop_assert_eq!(buf.len(), leaf.encoded_len());
        prop_assert_eq!(Node::decode(&buf).expect("decode leaf"), leaf);

        // Internal node: n children need n-1 strictly increasing keys.
        let separators = (0..children.len() - 1)
            .map(|i| format!("sep{i:06}").into_bytes())
            .collect();
        let internal = Node::Internal { children, separators };
        internal.encode(&mut buf);
        prop_assert_eq!(buf.len(), internal.encoded_len());
        prop_assert_eq!(Node::decode(&buf).expect("decode internal"), internal);
    }

    /// Splitting an oversized leaf preserves entries and ordering
    /// regardless of the entry-size distribution.
    #[test]
    fn leaf_split_preserves_entries(
        sizes in proptest::collection::vec(1usize..400, 2..40),
    ) {
        let entries: Vec<(Vec<u8>, Vec<u8>)> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| (format!("k{i:06}").into_bytes(), vec![0u8; s]))
            .collect();
        let total = entries.len();
        let mut node = Node::Leaf { entries: entries.into_iter().collect() };
        let (sep, right) = node.split();
        let (Node::Leaf { entries: left }, Node::Leaf { entries: right }) = (&node, &right) else {
            panic!("leaf split must produce leaves");
        };
        prop_assert_eq!(left.len() + right.len(), total);
        prop_assert!(!left.is_empty() && !right.is_empty());
        prop_assert_eq!(right.key(0), &sep[..]);
        prop_assert!(left.key(left.len() - 1) < &sep[..]);
    }
}
