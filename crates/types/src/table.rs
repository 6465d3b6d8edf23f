//! The type table: an arena of type definitions plus hierarchy maintenance.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use crate::wire::{
    check_id, decode_rows, row_u32, Reader, StringTable, Strings, WireError, WireResult, Writer,
};
use crate::{
    ConversionIndex, NamespaceId, Namespaces, PrimKind, TypeDef, TypeError, TypeId, TypeKind,
    TypeResult,
};

/// Ids of the types every table contains from birth.
#[derive(Debug, Clone, Copy)]
pub struct WellKnown {
    /// `System.Object`, the root of the reference hierarchy and the boxing
    /// target of every value type.
    pub object: TypeId,
    /// `void`, the return "type" of methods that return nothing. It converts
    /// to nothing and nothing converts to it.
    pub void: TypeId,
}

/// Arena of all types in a modelled program plus the namespace arena.
///
/// A fresh table contains `System.Object`, `void`, and the fourteen
/// primitives of [`PrimKind`] (registered in the global namespace under their
/// C# keywords). User types are added with the `declare_*` methods and wired
/// up with [`TypeTable::set_base`] / [`TypeTable::add_interface_impl`], which
/// enforce acyclicity.
#[derive(Debug, Clone)]
pub struct TypeTable {
    namespaces: Namespaces,
    types: Vec<TypeDef>,
    /// Simple-name maps, indexed by namespace id (absent past the last
    /// namespace that holds a type).
    by_name: Vec<HashMap<String, TypeId>>,
    well_known: WellKnown,
    prims: [TypeId; PrimKind::ALL.len()],
    /// Lazily built conversion cache; cleared by every hierarchy mutator
    /// so it can never go stale (all mutators take `&mut self`).
    // Arc-shared so cloning a table (the incremental-update path
    // patches a clone) shares the memoized index instead of deep-
    // copying every distance row; hierarchy mutators still drop it.
    conv: OnceLock<Arc<ConversionIndex>>,
}

impl Default for TypeTable {
    fn default() -> Self {
        Self::new()
    }
}

impl TypeTable {
    /// Creates a table pre-populated with `Object`, `void` and the primitives.
    pub fn new() -> Self {
        let mut namespaces = Namespaces::new();
        let system = namespaces.intern(&["System"]);
        let mut table = TypeTable {
            namespaces,
            types: Vec::new(),
            by_name: Vec::new(),
            // Placeholder ids, fixed up immediately below.
            well_known: WellKnown {
                object: TypeId(0),
                void: TypeId(0),
            },
            prims: [TypeId(0); PrimKind::ALL.len()],
            conv: OnceLock::new(),
        };
        let object = table
            .push(system, "Object", TypeKind::Class { base: None }, false)
            .expect("fresh table");
        let void = table
            .push(system, "Void", TypeKind::Void, false)
            .expect("fresh table");
        table.well_known = WellKnown { object, void };
        for (i, p) in PrimKind::ALL.iter().enumerate() {
            let id = table
                .push(
                    NamespaceId::GLOBAL,
                    p.keyword(),
                    TypeKind::Primitive(*p),
                    p.is_ordered(),
                )
                .expect("fresh table");
            table.prims[i] = id;
        }
        table
    }

    fn push(
        &mut self,
        namespace: NamespaceId,
        name: &str,
        kind: TypeKind,
        comparable: bool,
    ) -> TypeResult<TypeId> {
        if self.lookup(namespace, name).is_some() {
            return Err(TypeError::DuplicateType {
                name: name.to_owned(),
            });
        }
        self.conv.take();
        let id = TypeId(self.types.len() as u32);
        insert_name(&mut self.by_name, namespace, name.to_owned(), id);
        self.types.push(TypeDef {
            name: name.to_owned(),
            namespace,
            kind,
            interfaces: Vec::new(),
            comparable,
        });
        Ok(id)
    }

    /// The namespace arena.
    pub fn namespaces(&self) -> &Namespaces {
        &self.namespaces
    }

    /// Mutable access to the namespace arena (for interning new paths).
    pub fn namespaces_mut(&mut self) -> &mut Namespaces {
        &mut self.namespaces
    }

    /// Ids of the always-present types.
    pub fn well_known(&self) -> WellKnown {
        self.well_known
    }

    /// `System.Object`.
    pub fn object(&self) -> TypeId {
        self.well_known.object
    }

    /// The `void` pseudo-type.
    pub fn void_ty(&self) -> TypeId {
        self.well_known.void
    }

    /// The table id of a primitive kind.
    pub fn prim(&self, kind: PrimKind) -> TypeId {
        self.prims[PrimKind::ALL
            .iter()
            .position(|p| *p == kind)
            .expect("all kinds listed")]
    }

    /// Shorthand for [`TypeTable::prim`] with [`PrimKind::Int`].
    pub fn int_ty(&self) -> TypeId {
        self.prim(PrimKind::Int)
    }

    /// Shorthand for [`TypeTable::prim`] with [`PrimKind::Bool`].
    pub fn bool_ty(&self) -> TypeId {
        self.prim(PrimKind::Bool)
    }

    /// Shorthand for [`TypeTable::prim`] with [`PrimKind::Double`].
    pub fn double_ty(&self) -> TypeId {
        self.prim(PrimKind::Double)
    }

    /// Shorthand for [`TypeTable::prim`] with [`PrimKind::String`].
    pub fn string_ty(&self) -> TypeId {
        self.prim(PrimKind::String)
    }

    /// Declares a class deriving `Object` (until [`TypeTable::set_base`]).
    pub fn declare_class(&mut self, ns: NamespaceId, name: &str) -> TypeResult<TypeId> {
        self.push(ns, name, TypeKind::Class { base: None }, false)
    }

    /// Declares an interface.
    pub fn declare_interface(&mut self, ns: NamespaceId, name: &str) -> TypeResult<TypeId> {
        self.push(ns, name, TypeKind::Interface, false)
    }

    /// Declares a struct (user value type).
    pub fn declare_struct(&mut self, ns: NamespaceId, name: &str) -> TypeResult<TypeId> {
        self.push(ns, name, TypeKind::Struct, false)
    }

    /// Declares an enum. Enums are comparable with themselves by default.
    pub fn declare_enum(&mut self, ns: NamespaceId, name: &str) -> TypeResult<TypeId> {
        self.push(ns, name, TypeKind::Enum, true)
    }

    /// Sets the direct base class of `class`.
    ///
    /// # Errors
    ///
    /// Fails if `class` is not a class, is `Object`, if `base` is not a
    /// class, or if the edge would create a cycle.
    pub fn set_base(&mut self, class: TypeId, base: TypeId) -> TypeResult<()> {
        if class == self.well_known.object {
            return Err(TypeError::BaseNotAllowed {
                name: self.get(class).name.clone(),
            });
        }
        if !self.get(class).is_class() {
            return Err(TypeError::NotAClass {
                name: self.get(class).name.clone(),
            });
        }
        if !self.get(base).is_class() {
            return Err(TypeError::NotAClass {
                name: self.get(base).name.clone(),
            });
        }
        // Walk up from `base`; reaching `class` means a cycle.
        let mut cur = Some(base);
        while let Some(t) = cur {
            if t == class {
                return Err(TypeError::InheritanceCycle {
                    name: self.get(class).name.clone(),
                });
            }
            cur = self.declared_base(t);
        }
        match &mut self.types[class.index()].kind {
            TypeKind::Class { base: b } => *b = Some(base),
            _ => unreachable!("checked is_class above"),
        }
        self.conv.take();
        Ok(())
    }

    /// Records that `ty` implements (or, for interfaces, extends) `iface`.
    ///
    /// # Errors
    ///
    /// Fails if `iface` is not an interface or a cycle would be created
    /// between interfaces.
    pub fn add_interface_impl(&mut self, ty: TypeId, iface: TypeId) -> TypeResult<()> {
        if !self.get(iface).is_interface() {
            return Err(TypeError::NotAnInterface {
                name: self.get(iface).name.clone(),
            });
        }
        if self.get(ty).is_interface() {
            // Cycle check through interface-extends edges.
            let mut stack = vec![iface];
            let mut seen = vec![false; self.types.len()];
            while let Some(t) = stack.pop() {
                if t == ty {
                    return Err(TypeError::InheritanceCycle {
                        name: self.get(ty).name.clone(),
                    });
                }
                if std::mem::replace(&mut seen[t.index()], true) {
                    continue;
                }
                stack.extend(self.get(t).interfaces.iter().copied());
            }
        }
        let list = &mut self.types[ty.index()].interfaces;
        if !list.contains(&iface) {
            list.push(iface);
            self.conv.take();
        }
        Ok(())
    }

    /// Marks a non-primitive type as ordered by the relational operators
    /// (the paper's `DateTime` example).
    pub fn set_comparable(&mut self, ty: TypeId, comparable: bool) {
        self.types[ty.index()].comparable = comparable;
    }

    /// Drops a type's declared base class and interface list so an
    /// incremental update can re-apply a changed base list from scratch.
    /// Clears the memoized conversion index like every hierarchy mutator.
    pub fn clear_supertypes(&mut self, ty: TypeId) {
        if let TypeKind::Class { base } = &mut self.types[ty.index()].kind {
            *base = None;
        }
        self.types[ty.index()].interfaces.clear();
        self.conv.take();
    }

    /// Installs a prebuilt conversion index (the incremental update path
    /// swaps in a [`ConversionIndex::rebuild_partial`] result instead of
    /// paying a cold [`ConversionIndex::build`] on next access).
    pub fn set_conversion_index(&mut self, index: ConversionIndex) {
        self.conv.take();
        let _ = self.conv.set(Arc::new(index));
    }

    /// The definition behind an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this table.
    pub fn get(&self, id: TypeId) -> &TypeDef {
        &self.types[id.index()]
    }

    /// Looks up a type by namespace and simple name.
    pub fn lookup(&self, ns: NamespaceId, name: &str) -> Option<TypeId> {
        self.by_name.get(ns.index())?.get(name).copied()
    }

    /// Looks up a type by fully qualified dotted name (e.g.
    /// `"System.Object"`; primitives by keyword, e.g. `"int"`).
    pub fn lookup_qualified(&self, qualified: &str) -> Option<TypeId> {
        match qualified.rfind('.') {
            None => self.lookup(NamespaceId::GLOBAL, qualified),
            Some(i) => {
                let ns = self.namespaces.lookup_dotted(&qualified[..i])?;
                self.lookup(ns, &qualified[i + 1..])
            }
        }
    }

    /// Whether `id` is one of the types every table holds from birth
    /// (`Object`, `void` and the primitives), which no source declares.
    pub fn is_builtin(&self, id: TypeId) -> bool {
        id == self.well_known.object
            || matches!(self.get(id).kind, TypeKind::Primitive(_) | TypeKind::Void)
    }

    /// Number of types in the table.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// A table is never empty (well-known types are always present).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterates over all type ids in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = TypeId> + '_ {
        (0..self.types.len() as u32).map(TypeId)
    }

    /// Fully qualified dotted name of a type (primitives by keyword).
    pub fn qualified_name(&self, id: TypeId) -> String {
        let def = self.get(id);
        let ns = self.namespaces.dotted(def.namespace);
        if ns.is_empty() {
            def.name.clone()
        } else {
            format!("{ns}.{}", def.name)
        }
    }

    /// The declared base class edge, without the implicit `Object` fallback.
    pub fn declared_base(&self, id: TypeId) -> Option<TypeId> {
        match self.get(id).kind {
            TypeKind::Class { base } => base,
            _ => None,
        }
    }

    /// The effective base in the conversion graph: the declared base for
    /// classes (defaulting to `Object`), and `Object` for value types,
    /// primitives and interfaces (boxing / the universal reference target).
    /// `Object` and `void` have none.
    pub fn base_of(&self, id: TypeId) -> Option<TypeId> {
        if id == self.well_known.object || id == self.well_known.void {
            return None;
        }
        match self.get(id).kind {
            TypeKind::Class { base } => Some(base.unwrap_or(self.well_known.object)),
            TypeKind::Void => None,
            TypeKind::Interface | TypeKind::Struct | TypeKind::Enum | TypeKind::Primitive(_) => {
                Some(self.well_known.object)
            }
        }
    }

    /// Immediate declared supertypes in the conversion graph: the effective
    /// base plus declared interfaces. This is the `s(α)` of the paper's type
    /// distance definition.
    pub fn immediate_supertypes(&self, id: TypeId) -> Vec<TypeId> {
        let mut out = Vec::new();
        if let Some(b) = self.base_of(id) {
            out.push(b);
        }
        out.extend(self.get(id).interfaces.iter().copied());
        out
    }

    /// Serializes the table (namespaces, type definitions, well-known ids,
    /// and — when already built — the conversion index) for the persistent
    /// snapshot; names go into `strings`. The name lookup map is rebuilt
    /// on decode.
    ///
    /// Each type is one fixed-width row — name id, namespace id, kind
    /// word, base class id, interface count — and every type's interfaces
    /// follow in one flat id table. The kind word holds the kind tag in
    /// bits 0–7, a primitive's kind index in bits 8–15, "has an explicit
    /// base" in bit 16 and "comparable" in bit 17.
    pub fn encode<'a>(&'a self, strings: &mut StringTable<'a>, w: &mut Writer) {
        self.namespaces.encode(strings, w);
        w.put_len(self.types.len());
        for def in &self.types {
            strings.put(w, &def.name);
            w.put_u32(def.namespace.0);
            let (tag, prim, base) = match &def.kind {
                TypeKind::Class { base } => (0, 0, *base),
                TypeKind::Interface => (1, 0, None),
                TypeKind::Struct => (2, 0, None),
                TypeKind::Enum => (3, 0, None),
                TypeKind::Primitive(p) => {
                    let idx = PrimKind::ALL
                        .iter()
                        .position(|q| q == p)
                        .expect("all kinds listed");
                    (4, idx as u32, None)
                }
                TypeKind::Void => (5, 0, None),
            };
            let mut word = tag | (prim << 8);
            if base.is_some() {
                word |= kind::HAS_BASE;
            }
            if def.comparable {
                word |= kind::COMPARABLE;
            }
            w.put_u32(word);
            w.put_u32(base.map_or(0, |b| b.0));
            w.put_len(def.interfaces.len());
        }
        w.put_len(self.types.iter().map(|d| d.interfaces.len()).sum());
        for def in &self.types {
            for i in &def.interfaces {
                w.put_u32(i.0);
            }
        }
        w.put_u32(self.well_known.object.0);
        w.put_u32(self.well_known.void.0);
        for p in self.prims {
            w.put_u32(p.0);
        }
        let conv = self.conv.get();
        w.put_bool(conv.is_some());
        if let Some(conv) = conv {
            conv.encode(w);
        }
    }

    /// Decodes a table written by [`TypeTable::encode`], resolving names
    /// through `strings`.
    ///
    /// Every name, namespace, base, interface, well-known and primitive id
    /// is bounds-checked, and kind words with unknown bits are rejected;
    /// the well-known entries are verified to have the
    /// kinds a freshly-built table guarantees (`Object` a baseless class,
    /// `void` the void pseudo-type, each primitive slot the matching
    /// [`PrimKind`]), so downstream code can keep relying on those
    /// invariants without re-checking.
    pub fn decode<'a>(strings: &Strings<'a>, r: &mut Reader<'a>) -> WireResult<Self> {
        let namespaces = Namespaces::decode(strings, r)?;
        let rows: &[[u8; 20]] = r.get_rows("type table")?;
        let count = rows.len();
        let mut ifaces: &[[u8; 4]] = r.get_rows("interface table")?;
        let mut types = Vec::with_capacity(count);
        let mut by_name = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            let name = strings.get(row_u32(row, 0), "type name")?.to_owned();
            let namespace =
                NamespaceId(
                    check_id(row_u32(row, 1), namespaces.len(), "type namespace id")? as u32,
                );
            let word = row_u32(row, 2);
            let raw_base = row_u32(row, 3);
            if word & !kind::KNOWN_BITS != 0 {
                return Err(WireError::new(format!(
                    "type {i}: unknown kind flag bits {:#x}",
                    word & !kind::KNOWN_BITS
                )));
            }
            let prim = (word >> 8) & 0xff;
            let has_base = word & kind::HAS_BASE != 0;
            let kind = match word & 0xff {
                0 => TypeKind::Class {
                    base: if has_base {
                        Some(TypeId(check_id(raw_base, count, "base class id")? as u32))
                    } else {
                        None
                    },
                },
                1 => TypeKind::Interface,
                2 => TypeKind::Struct,
                3 => TypeKind::Enum,
                4 => match PrimKind::ALL.get(prim as usize) {
                    Some(p) => TypeKind::Primitive(*p),
                    None => {
                        return Err(WireError::new(format!(
                            "primitive kind index {prim} out of range"
                        )))
                    }
                },
                5 => TypeKind::Void,
                t => return Err(WireError::new(format!("unknown type kind tag {t}"))),
            };
            let is_class = matches!(kind, TypeKind::Class { .. });
            let is_prim = matches!(kind, TypeKind::Primitive(_));
            if (has_base && !is_class) || (!has_base && raw_base != 0) || (prim != 0 && !is_prim) {
                return Err(WireError::new(format!(
                    "type {i}: kind word {word:#x} and base id {raw_base} disagree"
                )));
            }
            let n_ifaces = row_u32(row, 4) as usize;
            if n_ifaces > ifaces.len() {
                return Err(WireError::new(format!(
                    "type {i}: {n_ifaces} interfaces run past the interface table"
                )));
            }
            let (own, rest) = ifaces.split_at(n_ifaces);
            ifaces = rest;
            let interfaces = decode_rows(own, |id| {
                Ok(TypeId(
                    check_id(u32::from_le_bytes(*id), count, "interface id")? as u32,
                ))
            })?;
            if insert_name(&mut by_name, namespace, name.clone(), TypeId(i as u32)).is_some() {
                return Err(WireError::new(format!("duplicate type name '{name}'")));
            }
            types.push(TypeDef {
                name,
                namespace,
                kind,
                interfaces,
                comparable: word & kind::COMPARABLE != 0,
            });
        }
        if !ifaces.is_empty() {
            return Err(WireError::new(format!(
                "interface table holds {} ids no type claims",
                ifaces.len()
            )));
        }
        let object = TypeId(r.get_id(count, "well-known Object id")? as u32);
        let void = TypeId(r.get_id(count, "well-known void id")? as u32);
        if !matches!(types[object.index()].kind, TypeKind::Class { base: None }) {
            return Err(WireError::new("well-known Object is not a baseless class"));
        }
        if !matches!(types[void.index()].kind, TypeKind::Void) {
            return Err(WireError::new("well-known void id does not name void"));
        }
        let mut prims = [TypeId(0); PrimKind::ALL.len()];
        for (i, slot) in prims.iter_mut().enumerate() {
            let id = TypeId(r.get_id(count, "primitive type id")? as u32);
            if types[id.index()].kind != TypeKind::Primitive(PrimKind::ALL[i]) {
                return Err(WireError::new(format!(
                    "primitive slot {i} does not name {}",
                    PrimKind::ALL[i].keyword()
                )));
            }
            *slot = id;
        }
        let conv = OnceLock::new();
        if r.get_bool("conversion index presence flag")? {
            let index = ConversionIndex::decode(r, count)?;
            let _ = conv.set(Arc::new(index));
        }
        Ok(TypeTable {
            namespaces,
            types,
            by_name,
            well_known: WellKnown { object, void },
            prims,
            conv,
        })
    }

    /// The memoized conversion cache for the current hierarchy, built on
    /// first use (and after any hierarchy mutation) in one pass over the
    /// table. All distance/target queries on `TypeTable` go through this;
    /// engine hot paths can also hold it directly to skip the `OnceLock`
    /// read per call.
    pub fn conversion_index(&self) -> &ConversionIndex {
        self.conv
            .get_or_init(|| Arc::new(ConversionIndex::build(self)))
    }
}

/// Flag bits of a type row's kind word (see [`TypeTable::encode`]).
mod kind {
    pub const HAS_BASE: u32 = 1 << 16;
    pub const COMPARABLE: u32 = 1 << 17;
    /// Tag, primitive index and the two flags.
    pub const KNOWN_BITS: u32 = 0x3_ffff;
}

/// Inserts `name` into `namespace`'s simple-name map, growing the
/// per-namespace index as needed; returns the id it displaced, if any.
fn insert_name(
    by_name: &mut Vec<HashMap<String, TypeId>>,
    namespace: NamespaceId,
    name: String,
    id: TypeId,
) -> Option<TypeId> {
    if by_name.len() <= namespace.index() {
        by_name.resize_with(namespace.index() + 1, HashMap::new);
    }
    by_name[namespace.index()].insert(name, id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_table_has_well_known_types() {
        let t = TypeTable::new();
        assert_eq!(t.get(t.object()).name(), "Object");
        assert_eq!(t.qualified_name(t.object()), "System.Object");
        assert_eq!(t.qualified_name(t.int_ty()), "int");
        assert_eq!(t.lookup_qualified("System.Object"), Some(t.object()));
        assert_eq!(t.lookup_qualified("int"), Some(t.int_ty()));
        assert_eq!(t.lookup_qualified("Nope.Object"), None);
    }

    #[test]
    fn duplicate_names_rejected_per_namespace() {
        let mut t = TypeTable::new();
        let ns = t.namespaces_mut().intern(&["A"]);
        let other = t.namespaces_mut().intern(&["B"]);
        t.declare_class(ns, "C").unwrap();
        assert!(matches!(
            t.declare_class(ns, "C"),
            Err(TypeError::DuplicateType { .. })
        ));
        // Same simple name in another namespace is fine.
        t.declare_class(other, "C").unwrap();
    }

    #[test]
    fn base_cycles_rejected() {
        let mut t = TypeTable::new();
        let ns = NamespaceId::GLOBAL;
        let a = t.declare_class(ns, "A").unwrap();
        let b = t.declare_class(ns, "B").unwrap();
        t.set_base(b, a).unwrap();
        assert!(matches!(
            t.set_base(a, b),
            Err(TypeError::InheritanceCycle { .. })
        ));
        assert!(matches!(
            t.set_base(a, a),
            Err(TypeError::InheritanceCycle { .. })
        ));
    }

    #[test]
    fn object_cannot_get_a_base() {
        let mut t = TypeTable::new();
        let ns = NamespaceId::GLOBAL;
        let a = t.declare_class(ns, "A").unwrap();
        let obj = t.object();
        assert!(matches!(
            t.set_base(obj, a),
            Err(TypeError::BaseNotAllowed { .. })
        ));
    }

    #[test]
    fn interface_extends_cycle_rejected() {
        let mut t = TypeTable::new();
        let ns = NamespaceId::GLOBAL;
        let i = t.declare_interface(ns, "I").unwrap();
        let j = t.declare_interface(ns, "J").unwrap();
        t.add_interface_impl(j, i).unwrap();
        assert!(matches!(
            t.add_interface_impl(i, j),
            Err(TypeError::InheritanceCycle { .. })
        ));
    }

    #[test]
    fn implementing_a_class_is_an_error() {
        let mut t = TypeTable::new();
        let ns = NamespaceId::GLOBAL;
        let a = t.declare_class(ns, "A").unwrap();
        let b = t.declare_class(ns, "B").unwrap();
        assert!(matches!(
            t.add_interface_impl(a, b),
            Err(TypeError::NotAnInterface { .. })
        ));
    }

    #[test]
    fn base_of_defaults_to_object() {
        let mut t = TypeTable::new();
        let ns = NamespaceId::GLOBAL;
        let a = t.declare_class(ns, "A").unwrap();
        let s = t.declare_struct(ns, "S").unwrap();
        let e = t.declare_enum(ns, "E").unwrap();
        assert_eq!(t.base_of(a), Some(t.object()));
        assert_eq!(t.base_of(s), Some(t.object()));
        assert_eq!(t.base_of(e), Some(t.object()));
        assert_eq!(t.base_of(t.object()), None);
        assert_eq!(t.base_of(t.void_ty()), None);
        assert_eq!(t.base_of(t.int_ty()), Some(t.object()));
    }

    #[test]
    fn enums_default_comparable() {
        let mut t = TypeTable::new();
        let e = t.declare_enum(NamespaceId::GLOBAL, "E").unwrap();
        assert!(t.get(e).is_comparable());
        let c = t.declare_class(NamespaceId::GLOBAL, "DateTime").unwrap();
        assert!(!t.get(c).is_comparable());
        t.set_comparable(c, true);
        assert!(t.get(c).is_comparable());
    }
}
