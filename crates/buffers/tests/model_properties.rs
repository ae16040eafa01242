//! Property tests for the buffer layer's tables.

use std::collections::HashMap;

use proptest::prelude::*;

use unp_buffers::{BqiTable, OwnerTag, RingId};

proptest! {
    /// The BQI table never resolves to a freed or foreign binding, and
    /// always falls back to the kernel ring.
    #[test]
    fn bqi_table_resolution_safety(
        allocs in proptest::collection::vec((1u64..5, 1u32..100), 0..20),
        probe in any::<u16>(),
    ) {
        let mut t = BqiTable::new(8, RingId(0));
        let mut bound: HashMap<u16, RingId> = HashMap::new();
        for (owner, ring) in allocs {
            if let Some(bqi) = t.allocate(OwnerTag(owner), RingId(ring)) {
                prop_assert!(bqi != 0, "never hands out the kernel entry");
                prop_assert!(!bound.contains_key(&bqi), "index reuse while bound");
                bound.insert(bqi, RingId(ring));
            }
        }
        let got = t.resolve(probe);
        match bound.get(&probe) {
            Some(&ring) => prop_assert_eq!(got, ring),
            None => prop_assert_eq!(got, RingId(0), "unbound must fall back to kernel"),
        }
    }
}
