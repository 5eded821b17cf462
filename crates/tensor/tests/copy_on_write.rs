//! The copy-on-write contract of tensor storage: `clone`, `reshape` and
//! a same-shape `broadcast_to` share one buffer, and the first mutation
//! through any alias copies it out, so every other alias keeps its bits.
//!
//! The byte ledger checked here (`memory::current_bytes`) is
//! process-wide, so this file holds a single test: no other test can
//! allocate tensors while it runs.

use proptest::prelude::*;
use stwa_tensor::{memory, Tensor};

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn mutating_one_alias_leaves_the_others_bitwise_intact(
        rows in 1usize..6,
        cols in 1usize..40,
        values in proptest::collection::vec(-10.0f32..10.0, 240),
        target in 0usize..4,
        how in 0usize..3,
    ) {
        let start = memory::current_bytes();
        {
            let n = rows * cols;
            let x = Tensor::from_vec(values[..n].to_vec(), &[rows, cols]).unwrap();
            let original = bits(&x);
            let mut aliases = [
                x.clone(),
                x.reshape(&[n]).unwrap(),
                x.broadcast_to(&[rows, cols]).unwrap(),
                x,
            ];
            let victim = &mut aliases[target];
            let want: Vec<u32> = match how {
                0 => {
                    for v in victim.data_mut() {
                        *v = *v * 3.0 + 1.0;
                    }
                    values[..n].iter().map(|v| (v * 3.0 + 1.0).to_bits()).collect()
                }
                1 => {
                    victim.map_inplace(|v| v * 3.0 + 1.0);
                    values[..n].iter().map(|v| (v * 3.0 + 1.0).to_bits()).collect()
                }
                _ => {
                    let ones = Tensor::ones(victim.shape());
                    victim.add_assign(&ones).unwrap();
                    values[..n].iter().map(|v| (v + 1.0).to_bits()).collect()
                }
            };
            for (i, alias) in aliases.iter().enumerate() {
                if i == target {
                    prop_assert_eq!(bits(alias), want.clone(), "mutated alias {}", i);
                } else {
                    prop_assert_eq!(bits(alias), original.clone(), "alias {} changed", i);
                }
            }
        }
        prop_assert_eq!(memory::current_bytes(), start, "bytes leaked or double-freed");
    }
}
