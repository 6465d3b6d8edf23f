//! Property tests for the type-distance lattice over random hierarchies.

use proptest::prelude::*;

use pex_types::wire::Writer;
use pex_types::{ConversionIndex, NamespaceId, PrimKind, TypeId, TypeTable};

/// A recipe for a random hierarchy: per class, an optional base among the
/// earlier classes; per class, optional interface links.
#[derive(Debug, Clone)]
struct Recipe {
    bases: Vec<Option<usize>>,         // bases[i] < i
    iface_of: Vec<Option<usize>>,      // class i implements interface iface_of[i]
    iface_extends: Vec<Option<usize>>, // interface j extends earlier interface
}

fn recipe(max_classes: usize, max_ifaces: usize) -> impl Strategy<Value = Recipe> {
    (2..max_classes, 1..max_ifaces).prop_flat_map(|(nc, ni)| {
        let bases = (0..nc)
            .map(|i| {
                if i == 0 {
                    Just(None).boxed()
                } else {
                    proptest::option::of(0..i).boxed()
                }
            })
            .collect::<Vec<_>>();
        let iface_of = (0..nc)
            .map(|_| proptest::option::of(0..ni))
            .collect::<Vec<_>>();
        let iface_extends = (0..ni)
            .map(|j| {
                if j == 0 {
                    Just(None).boxed()
                } else {
                    proptest::option::of(0..j).boxed()
                }
            })
            .collect::<Vec<_>>();
        (bases, iface_of, iface_extends).prop_map(|(bases, iface_of, iface_extends)| Recipe {
            bases,
            iface_of,
            iface_extends,
        })
    })
}

fn build(recipe: &Recipe) -> (TypeTable, Vec<TypeId>, Vec<TypeId>) {
    let mut table = TypeTable::new();
    let ns = NamespaceId::GLOBAL;
    let ifaces: Vec<TypeId> = (0..recipe.iface_extends.len())
        .map(|j| {
            table
                .declare_interface(ns, &format!("I{j}"))
                .expect("unique names")
        })
        .collect();
    for (j, ext) in recipe.iface_extends.iter().enumerate() {
        if let Some(k) = ext {
            table
                .add_interface_impl(ifaces[j], ifaces[*k])
                .expect("acyclic by construction");
        }
    }
    let classes: Vec<TypeId> = (0..recipe.bases.len())
        .map(|i| {
            table
                .declare_class(ns, &format!("C{i}"))
                .expect("unique names")
        })
        .collect();
    for (i, base) in recipe.bases.iter().enumerate() {
        if let Some(b) = base {
            table
                .set_base(classes[i], classes[*b])
                .expect("acyclic by construction");
        }
        if let Some(j) = recipe.iface_of[i] {
            table
                .add_interface_impl(classes[i], ifaces[j])
                .expect("interfaces are interfaces");
        }
    }
    (table, classes, ifaces)
}

/// One hierarchy edit of the kinds an incremental update makes. Indexes
/// pick among the classes, interfaces or all types at the time of the
/// edit, modulo their count.
#[derive(Debug, Clone)]
enum Edit {
    SetBase(usize, usize),
    Implement(usize, usize),
    Clear(usize),
    DeclareClass(Option<usize>),
    DeclareInterface(Option<usize>),
}

fn edit() -> impl Strategy<Value = Edit> {
    (0..5u8, 0..64usize, 0..64usize, any::<bool>()).prop_map(|(kind, a, b, some)| match kind {
        0 => Edit::SetBase(a, b),
        1 => Edit::Implement(a, b),
        2 => Edit::Clear(a),
        3 => Edit::DeclareClass(some.then_some(a)),
        _ => Edit::DeclareInterface(some.then_some(a)),
    })
}

/// Applies `edits` to the table built from a recipe and returns the types
/// whose supertype edges changed, as an update reports them. Edits the
/// table refuses (cycles) change nothing and are not reported.
fn apply(
    table: &mut TypeTable,
    classes: &mut Vec<TypeId>,
    ifaces: &mut Vec<TypeId>,
    edits: &[Edit],
) -> Vec<TypeId> {
    let mut dirty = Vec::new();
    for (k, edit) in edits.iter().enumerate() {
        let all: Vec<TypeId> = classes.iter().chain(ifaces.iter()).copied().collect();
        match *edit {
            Edit::SetBase(a, b) => {
                let (c, base) = (classes[a % classes.len()], classes[b % classes.len()]);
                if table.set_base(c, base).is_ok() {
                    dirty.push(c);
                }
            }
            Edit::Implement(a, b) => {
                let (ty, iface) = (all[a % all.len()], ifaces[b % ifaces.len()]);
                if table.add_interface_impl(ty, iface).is_ok() {
                    dirty.push(ty);
                }
            }
            Edit::Clear(a) => {
                let ty = all[a % all.len()];
                table.clear_supertypes(ty);
                dirty.push(ty);
            }
            Edit::DeclareClass(base) => {
                let c = table
                    .declare_class(NamespaceId::GLOBAL, &format!("New{k}"))
                    .expect("unique names");
                if let Some(b) = base {
                    table
                        .set_base(c, classes[b % classes.len()])
                        .expect("a new class has no subclasses");
                    dirty.push(c);
                }
                classes.push(c);
            }
            Edit::DeclareInterface(ext) => {
                let i = table
                    .declare_interface(NamespaceId::GLOBAL, &format!("New{k}"))
                    .expect("unique names");
                if let Some(e) = ext {
                    table
                        .add_interface_impl(i, ifaces[e % ifaces.len()])
                        .expect("a new interface has no extenders");
                    dirty.push(i);
                }
                ifaces.push(i);
            }
        }
    }
    dirty
}

fn encoded(index: &ConversionIndex) -> Vec<u8> {
    let mut w = Writer::new();
    index.encode(&mut w);
    w.into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn partial_rebuild_equals_a_fresh_build(
        recipe in recipe(10, 5),
        edits in proptest::collection::vec(edit(), 1..8),
    ) {
        // A partial rebuild reuses the old rows whose closure avoids every
        // edited type; whatever it reuses, the result is the index a cold
        // build of the edited table gives, row for row and byte for byte.
        let (mut table, mut classes, mut ifaces) = build(&recipe);
        let old = table.conversion_index().clone();
        let dirty = apply(&mut table, &mut classes, &mut ifaces, &edits);
        let (partial, recomputed) = ConversionIndex::rebuild_partial(&table, &old, &dirty);
        let fresh = ConversionIndex::build(&table);
        prop_assert_eq!(partial.len(), table.len());
        prop_assert!(recomputed >= table.len() - old.len());
        prop_assert!(recomputed <= table.len());
        for from in table.iter() {
            prop_assert_eq!(partial.targets(from), fresh.targets(from), "row of {:?}", from);
            for to in table.iter() {
                prop_assert_eq!(
                    partial.distance(from, to),
                    fresh.distance(from, to),
                    "distance {:?} -> {:?}", from, to
                );
            }
        }
        prop_assert_eq!(encoded(&partial), encoded(&fresh));
        prop_assert_eq!(&partial, &fresh);
    }

    #[test]
    fn distance_laws_hold(recipe in recipe(10, 5)) {
        let (table, classes, ifaces) = build(&recipe);
        let all: Vec<TypeId> = classes.iter().chain(ifaces.iter()).copied().collect();
        let object = table.object();

        for &a in &all {
            // Identity.
            prop_assert_eq!(table.type_distance(a, a), Some(0));
            // Everything nominal converts to Object.
            let to_obj = table.type_distance(a, object);
            prop_assert!(to_obj.is_some());
            // ... and Object converts to nothing else.
            if a != object {
                prop_assert_eq!(table.type_distance(object, a), None);
            }
        }

        // Triangle inequality along composable conversions, and
        // antisymmetry (both directions defined only for equal types).
        for &a in &all {
            for &b in &all {
                let ab = table.type_distance(a, b);
                if a != b && ab.is_some() {
                    prop_assert_eq!(table.type_distance(b, a), None);
                }
                for &c in &all {
                    if let (Some(d1), Some(d2)) =
                        (ab, table.type_distance(b, c))
                    {
                        let ac = table.type_distance(a, c);
                        prop_assert!(ac.is_some(), "convertibility must compose");
                        prop_assert!(
                            ac.expect("checked") <= d1 + d2,
                            "distance must satisfy the triangle inequality"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn conversion_targets_agree_with_distance(recipe in recipe(10, 5)) {
        let (table, classes, ifaces) = build(&recipe);
        let all: Vec<TypeId> = classes.iter().chain(ifaces.iter()).copied().collect();
        for &a in &all {
            let targets = table.conversion_targets(a);
            // Sorted by distance, complete, and consistent.
            let mut last = 0;
            for &(t, d) in &targets {
                prop_assert_eq!(table.type_distance(a, t), Some(d));
                prop_assert!(d >= last);
                last = d;
            }
            for &b in &all {
                if let Some(d) = table.type_distance(a, b) {
                    prop_assert!(
                        targets.contains(&(b, d)),
                        "reachable type missing from conversion targets"
                    );
                }
            }
        }
    }

    #[test]
    fn conversion_index_matches_bfs_oracle(recipe in recipe(12, 6)) {
        // The memoized index is built by DP over the conversion DAG; the
        // BFS walk is the reference oracle. They must agree exactly —
        // distances, target sets, and target order — on every pair,
        // primitives and `object` included.
        let (table, _, _) = build(&recipe);
        let index = table.conversion_index();
        for from in table.iter() {
            let oracle = table.conversion_targets_bfs(from);
            prop_assert_eq!(
                index.targets(from),
                oracle.as_slice(),
                "target list mismatch for {:?}", from
            );
            for to in table.iter() {
                prop_assert_eq!(
                    index.distance(from, to),
                    table.type_distance_bfs(from, to),
                    "distance mismatch for {:?} -> {:?}", from, to
                );
            }
        }
    }

    #[test]
    fn comparable_pairs_are_symmetric(a in 0..14usize, b in 0..14usize) {
        let table = TypeTable::new();
        let ta = table.prim(PrimKind::ALL[a]);
        let tb = table.prim(PrimKind::ALL[b]);
        let ab = table.comparable_pair(ta, tb);
        let ba = table.comparable_pair(tb, ta);
        prop_assert_eq!(ab.is_some(), ba.is_some());
        if let (Some(x), Some(y)) = (ab, ba) {
            prop_assert_eq!(x.general, y.general);
            prop_assert_eq!(x.distance, y.distance);
        }
    }
}
