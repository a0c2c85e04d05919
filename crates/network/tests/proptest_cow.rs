//! Model-based property test of `CowChunks`: a random history of reads,
//! writes, pushes and clones behaves like a plain `Vec`, every clone keeps
//! reading the values it was cloned with, and a clone still shares every
//! chunk the column has not written since.

use proptest::prelude::*;
use road_network::cow::CowChunks;
use std::collections::BTreeSet;

#[derive(Clone, Debug)]
enum Op {
    Get(usize),
    Write(usize, u32),
    Push(u32),
    Clone,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..160).prop_map(Op::Get),
        (0usize..160, 0u32..1000).prop_map(|(i, v)| Op::Write(i, v)),
        (0u32..1000).prop_map(Op::Push),
        Just(Op::Clone),
    ]
}

/// A clone of the column, the values it was cloned with, and the chunks
/// the column has written since.
struct Fork {
    column: CowChunks<u32>,
    model: Vec<u32>,
    written: BTreeSet<usize>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn a_column_is_a_vec_and_its_clones_keep_their_values(
        shift in 0u32..5,
        initial in 0usize..100,
        ops in prop::collection::vec(op(), 1..160),
    ) {
        let mut model: Vec<u32> = (0..initial as u32).collect();
        let mut column = CowChunks::from_vec(model.clone(), shift);
        let mut forks: Vec<Fork> = Vec::new();
        let mut writes = 0u64;
        for op in ops {
            match op {
                Op::Get(i) => prop_assert_eq!(column.get(i), model.get(i)),
                Op::Write(i, v) => {
                    let slot = column.make_mut(i);
                    prop_assert_eq!(slot.is_some(), i < model.len());
                    if let (Some(slot), Some(m)) = (slot, model.get_mut(i)) {
                        *slot = v;
                        *m = v;
                        writes += 1;
                        for fork in &mut forks {
                            fork.written.insert(i >> shift);
                            prop_assert_eq!(fork.column.get(i), fork.model.get(i));
                        }
                    }
                }
                Op::Push(v) => {
                    column.push(v);
                    model.push(v);
                    writes += 1;
                    for fork in &mut forks {
                        fork.written.insert((model.len() - 1) >> shift);
                    }
                }
                Op::Clone => forks.push(Fork {
                    column: column.clone(),
                    model: model.clone(),
                    written: BTreeSet::new(),
                }),
            }
            prop_assert_eq!(column.len(), model.len());
        }
        prop_assert_eq!(column.iter().copied().collect::<Vec<_>>(), model.clone());
        prop_assert_eq!(column.num_chunks(), model.len().div_ceil(1 << shift));
        for (i, window) in model.chunks(1 << shift).enumerate() {
            prop_assert_eq!(column.slice(i << shift..(i << shift) + window.len()), Some(window));
        }
        for fork in &forks {
            prop_assert_eq!(fork.column.iter().copied().collect::<Vec<_>>(), fork.model.clone());
            let total = fork.column.num_chunks();
            let written = fork.written.iter().filter(|&&c| c < total).count();
            prop_assert!(
                column.shared_chunks(&fork.column) >= total - written,
                "{} of {total} chunks shared, {written} written since the clone",
                column.shared_chunks(&fork.column)
            );
        }
        // A write copies at most the one chunk it lands in.
        prop_assert!(column.bytes_copied() <= (writes * 4) << shift);
    }
}
