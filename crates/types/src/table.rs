//! The type table: fixed-width type rows plus hierarchy maintenance.

use std::sync::{Arc, OnceLock};

use crate::def::{kind, TypeRow};
use crate::text::{KeyIndex, Text};
use crate::wire::{check_id, row_u32, Reader, StringTable, Strings, WireError, WireResult, Writer};
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
///
/// The layout is the snapshot's type section held in memory, as .NET
/// metadata keeps TypeDef and InterfaceImpl rows: each type is one
/// fixed-width row whose name is an id into the namespace arena's text
/// table, and every type's interfaces are a run of one flat interface
/// table. [`TypeTable::get`] returns a `Copy` view over a row.
#[derive(Debug, Clone)]
pub struct TypeTable {
    namespaces: Namespaces,
    rows: Vec<TypeRow>,
    ifaces: Vec<TypeId>,
    /// Interface-table entries no run covers: left by
    /// [`TypeTable::clear_supertypes`] and by runs moved to the end to
    /// grow, until [`TypeTable::shrink_to_fit`] compacts the table.
    dead_ifaces: usize,
    /// `(namespace, simple name)` to type id.
    by_name: KeyIndex,
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
            rows: Vec::new(),
            ifaces: Vec::new(),
            dead_ifaces: 0,
            by_name: KeyIndex::default(),
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
        let new = self.rows.len() as u32;
        let found = self.by_name.find_or_insert(
            (namespace.0, name),
            is_named(&self.rows, self.namespaces.text(), namespace, name),
            new,
        );
        if found != new {
            return Err(TypeError::DuplicateType {
                name: name.to_owned(),
            });
        }
        self.conv.take();
        let text = self.namespaces.text_mut().push(name);
        self.rows
            .push(TypeRow::new(text, namespace, kind, comparable));
        Ok(TypeId(new))
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
        self.prims[kind.index() as usize]
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
        let name = |t: &Self, id: TypeId| t.get(id).name().to_owned();
        if class == self.well_known.object {
            return Err(TypeError::BaseNotAllowed {
                name: name(self, class),
            });
        }
        if !self.get(class).is_class() {
            return Err(TypeError::NotAClass {
                name: name(self, class),
            });
        }
        if !self.get(base).is_class() {
            return Err(TypeError::NotAClass {
                name: name(self, base),
            });
        }
        // Walk up from `base`; reaching `class` means a cycle.
        let mut cur = Some(base);
        while let Some(t) = cur {
            if t == class {
                return Err(TypeError::InheritanceCycle {
                    name: name(self, class),
                });
            }
            cur = self.declared_base(t);
        }
        self.rows[class.index()].set_base(Some(base));
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
                name: self.get(iface).name().to_owned(),
            });
        }
        if self.get(ty).is_interface() {
            // Cycle check through interface-extends edges.
            let mut stack = vec![iface];
            let mut seen = vec![false; self.rows.len()];
            while let Some(t) = stack.pop() {
                if t == ty {
                    return Err(TypeError::InheritanceCycle {
                        name: self.get(ty).name().to_owned(),
                    });
                }
                if std::mem::replace(&mut seen[t.index()], true) {
                    continue;
                }
                stack.extend_from_slice(self.get(t).interfaces());
            }
        }
        if self.get(ty).interfaces().contains(&iface) {
            return Ok(());
        }
        // A run grows in place at the end of the table; elsewhere it moves
        // there, leaving its old entries dead.
        let row = self.rows[ty.index()];
        let run = row.iface_range();
        if run.end != self.ifaces.len() || run.is_empty() {
            self.ifaces.extend_from_within(run.clone());
            self.dead_ifaces += run.len();
            self.rows[ty.index()].first_iface = (self.ifaces.len() - run.len()) as u32;
        }
        self.ifaces.push(iface);
        self.rows[ty.index()].n_ifaces += 1;
        self.conv.take();
        Ok(())
    }

    /// Marks a non-primitive type as ordered by the relational operators
    /// (the paper's `DateTime` example).
    pub fn set_comparable(&mut self, ty: TypeId, comparable: bool) {
        self.rows[ty.index()].set_comparable(comparable);
    }

    /// Drops a type's declared base class and interface list so an
    /// incremental update can re-apply a changed base list from scratch.
    /// Clears the memoized conversion index like every hierarchy mutator.
    pub fn clear_supertypes(&mut self, ty: TypeId) {
        let row = &mut self.rows[ty.index()];
        if row.tag() == kind::CLASS {
            row.set_base(None);
        }
        self.dead_ifaces += row.n_ifaces as usize;
        row.n_ifaces = 0;
        self.conv.take();
    }

    /// Installs a prebuilt conversion index (the incremental update path
    /// swaps in a [`ConversionIndex::rebuild_partial`] result instead of
    /// paying a cold [`ConversionIndex::build`] on next access).
    pub fn set_conversion_index(&mut self, index: ConversionIndex) {
        self.conv.take();
        let _ = self.conv.set(Arc::new(index));
    }

    /// Ends a batch of edits: rewrites the interface table without the
    /// entries no run covers, each run in type order as a decoded table
    /// holds them, and drops every table's growth slack.
    pub fn shrink_to_fit(&mut self) {
        if self.dead_ifaces > 0 {
            let mut ifaces = Vec::with_capacity(self.ifaces.len() - self.dead_ifaces);
            for row in &mut self.rows {
                let run = row.iface_range();
                row.first_iface = ifaces.len() as u32;
                ifaces.extend_from_slice(&self.ifaces[run]);
            }
            self.ifaces = ifaces;
            self.dead_ifaces = 0;
        }
        self.rows.shrink_to_fit();
        self.ifaces.shrink_to_fit();
        self.namespaces.shrink_to_fit();
    }

    /// Unused capacity and dead interface entries in the table's vectors
    /// and its namespace arena, in elements: zero after
    /// [`TypeTable::shrink_to_fit`] and after a decode.
    pub fn slack(&self) -> usize {
        self.rows.capacity() - self.rows.len() + self.ifaces.capacity() - self.ifaces.len()
            + self.dead_ifaces
            + self.namespaces.slack()
    }

    /// The definition behind an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this table.
    #[inline]
    pub fn get(&self, id: TypeId) -> TypeDef<'_> {
        TypeDef::new(self, &self.rows[id.index()])
    }

    /// The interfaces of a row of this table.
    pub(crate) fn interface_run(&self, row: &TypeRow) -> &[TypeId] {
        &self.ifaces[row.iface_range()]
    }

    /// Looks up a type by namespace and simple name.
    pub fn lookup(&self, ns: NamespaceId, name: &str) -> Option<TypeId> {
        let id = self.by_name.find(
            (ns.0, name),
            is_named(&self.rows, self.namespaces.text(), ns, name),
        )?;
        Some(TypeId(id))
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
            || matches!(self.get(id).kind(), TypeKind::Primitive(_) | TypeKind::Void)
    }

    /// Number of types in the table.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// A table is never empty (well-known types are always present).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterates over all type ids in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = TypeId> + '_ {
        (0..self.rows.len() as u32).map(TypeId)
    }

    /// Fully qualified dotted name of a type (primitives by keyword).
    pub fn qualified_name(&self, id: TypeId) -> String {
        let def = self.get(id);
        let ns = self.namespaces.dotted(def.namespace());
        if ns.is_empty() {
            def.name().to_owned()
        } else {
            format!("{ns}.{}", def.name())
        }
    }

    /// The declared base class edge, without the implicit `Object` fallback.
    pub fn declared_base(&self, id: TypeId) -> Option<TypeId> {
        self.rows[id.index()].base()
    }

    /// The effective base in the conversion graph: the declared base for
    /// classes (defaulting to `Object`), and `Object` for value types,
    /// primitives and interfaces (boxing / the universal reference target).
    /// `Object` and `void` have none.
    pub fn base_of(&self, id: TypeId) -> Option<TypeId> {
        if id == self.well_known.object || id == self.well_known.void {
            return None;
        }
        match self.get(id).kind() {
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
    pub fn immediate_supertypes(&self, id: TypeId) -> impl Iterator<Item = TypeId> + '_ {
        self.base_of(id)
            .into_iter()
            .chain(self.get(id).interfaces().iter().copied())
    }

    /// Every type, each after all of its immediate supertypes, by one
    /// depth-first walk; `Err` with a type on a cycle if the hierarchy has
    /// one. Takes three heap blocks whatever the table's size.
    pub(crate) fn supertypes_first(&self) -> Result<Vec<TypeId>, TypeId> {
        const NEW: u8 = 0;
        const OPEN: u8 = 1;
        const DONE: u8 = 2;
        let n = self.len();
        let mut order = Vec::with_capacity(n);
        let mut state = vec![NEW; n];
        // Each type is pushed once, so the stack never outgrows `n`.
        let mut stack: Vec<(TypeId, usize)> = Vec::with_capacity(n);
        for root in self.iter() {
            if state[root.index()] != NEW {
                continue;
            }
            state[root.index()] = OPEN;
            stack.push((root, 0));
            while let Some(&mut (t, ref mut next)) = stack.last_mut() {
                match self.immediate_supertypes(t).nth(*next) {
                    Some(s) => {
                        *next += 1;
                        match state[s.index()] {
                            NEW => {
                                state[s.index()] = OPEN;
                                stack.push((s, 0));
                            }
                            OPEN => return Err(s),
                            _ => {}
                        }
                    }
                    None => {
                        state[t.index()] = DONE;
                        order.push(t);
                        stack.pop();
                    }
                }
            }
        }
        Ok(order)
    }

    /// Serializes the table (namespaces, type rows, well-known ids, and —
    /// when already built — the conversion index) for the persistent
    /// snapshot; names go into `strings`. The name index is rebuilt on
    /// decode.
    ///
    /// Each type is one fixed-width row — name id, namespace id, kind
    /// word, base class id, interface count — and every type's interfaces
    /// follow in one flat id table. The kind word holds the kind tag in
    /// bits 0–7, a primitive's kind index in bits 8–15, "has an explicit
    /// base" in bit 16 and "comparable" in bit 17.
    pub fn encode<'a>(&'a self, strings: &mut StringTable<'a>, w: &mut Writer) {
        self.namespaces.encode(strings, w);
        w.put_len(self.rows.len());
        for row in &self.rows {
            strings.put(w, self.namespaces.text().get(row.name));
            w.put_u32(row.namespace.0);
            w.put_u32(row.word);
            w.put_u32(row.base);
            w.put_u32(row.n_ifaces);
        }
        w.put_len(self.ifaces.len() - self.dead_ifaces);
        for row in &self.rows {
            for i in self.interface_run(row) {
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
    /// invariants without re-checking. The hierarchy is held to what the
    /// mutators allow: every base is a class, every interface entry an
    /// interface, and no chain of bases or interface extensions returns
    /// to where it started.
    pub fn decode<'a>(strings: &Strings<'a>, r: &mut Reader<'a>) -> WireResult<Self> {
        let mut namespaces = Namespaces::decode(strings, r)?;
        let file_rows: &[[u8; 20]] = r.get_rows("type table")?;
        let count = file_rows.len();
        let file_ifaces: &[[u8; 4]] = r.get_rows("interface table")?;
        let mut name_bytes = 0;
        for row in file_rows {
            name_bytes += strings.get(row_u32(row, 0), "type name")?.len();
        }
        namespaces.text_mut().reserve_exact(count, name_bytes);
        let mut rows = Vec::with_capacity(count);
        let mut by_name = KeyIndex::with_capacity(count);
        let mut first_iface = 0;
        for (i, row) in file_rows.iter().enumerate() {
            let name = strings.get(row_u32(row, 0), "type name")?;
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
            let prim = (word >> kind::PRIM_SHIFT) & 0xff;
            let has_base = word & kind::HAS_BASE != 0;
            match word & kind::TAG {
                kind::CLASS if has_base => {
                    check_id(raw_base, count, "base class id")?;
                }
                kind::PRIMITIVE if prim as usize >= PrimKind::ALL.len() => {
                    return Err(WireError::new(format!(
                        "primitive kind index {prim} out of range"
                    )))
                }
                kind::CLASS..=kind::VOID => {}
                t => return Err(WireError::new(format!("unknown type kind tag {t}"))),
            }
            let is_class = word & kind::TAG == kind::CLASS;
            let is_prim = word & kind::TAG == kind::PRIMITIVE;
            if (has_base && !is_class) || (!has_base && raw_base != 0) || (prim != 0 && !is_prim) {
                return Err(WireError::new(format!(
                    "type {i}: kind word {word:#x} and base id {raw_base} disagree"
                )));
            }
            let n_ifaces = row_u32(row, 4);
            if n_ifaces as usize > file_ifaces.len() - first_iface as usize {
                return Err(WireError::new(format!(
                    "type {i}: {n_ifaces} interfaces run past the interface table"
                )));
            }
            let is = is_named(&rows, namespaces.text(), namespace, name);
            if by_name.find_or_insert((namespace.0, name), is, i as u32) != i as u32 {
                return Err(WireError::new(format!("duplicate type name '{name}'")));
            }
            rows.push(TypeRow {
                name: namespaces.text_mut().push(name),
                namespace,
                word,
                base: raw_base,
                first_iface,
                n_ifaces,
            });
            first_iface += n_ifaces;
        }
        if first_iface as usize != file_ifaces.len() {
            return Err(WireError::new(format!(
                "interface table holds {} ids no type claims",
                file_ifaces.len() - first_iface as usize
            )));
        }
        let mut ifaces = Vec::with_capacity(file_ifaces.len());
        for id in file_ifaces {
            let id = check_id(u32::from_le_bytes(*id), count, "interface id")?;
            ifaces.push(TypeId(id as u32));
        }
        let object = TypeId(r.get_id(count, "well-known Object id")? as u32);
        let void = TypeId(r.get_id(count, "well-known void id")? as u32);
        let mut table = TypeTable {
            namespaces,
            rows,
            ifaces,
            dead_ifaces: 0,
            by_name,
            well_known: WellKnown { object, void },
            prims: [TypeId(0); PrimKind::ALL.len()],
            conv: OnceLock::new(),
        };
        if !matches!(table.get(object).kind(), TypeKind::Class { base: None }) {
            return Err(WireError::new("well-known Object is not a baseless class"));
        }
        if !matches!(table.get(void).kind(), TypeKind::Void) {
            return Err(WireError::new("well-known void id does not name void"));
        }
        let mut prims = [TypeId(0); PrimKind::ALL.len()];
        for (i, slot) in prims.iter_mut().enumerate() {
            let id = TypeId(r.get_id(count, "primitive type id")? as u32);
            if table.get(id).kind() != TypeKind::Primitive(PrimKind::ALL[i]) {
                return Err(WireError::new(format!(
                    "primitive slot {i} does not name {}",
                    PrimKind::ALL[i].keyword()
                )));
            }
            *slot = id;
        }
        table.prims = prims;
        table.check_hierarchy()?;
        if r.get_bool("conversion index presence flag")? {
            let index = ConversionIndex::decode(r, count)?;
            let _ = table.conv.set(Arc::new(index));
        }
        Ok(table)
    }

    /// Refuses the edges the mutators refuse: a base that is not a class,
    /// an interface entry that is not an interface, and a cycle of bases
    /// or of interface extensions.
    fn check_hierarchy(&self) -> WireResult<()> {
        for ty in self.iter() {
            let def = self.get(ty);
            if let Some(base) = self.declared_base(ty) {
                if !self.get(base).is_class() {
                    return Err(WireError::new(format!(
                        "type {} '{}': base type {} is not a class",
                        ty.0,
                        def.name(),
                        base.0
                    )));
                }
            }
            if let Some(iface) = def
                .interfaces()
                .iter()
                .find(|&&i| !self.get(i).is_interface())
            {
                return Err(WireError::new(format!(
                    "type {} '{}': interface entry {} is not an interface",
                    ty.0,
                    def.name(),
                    iface.0
                )));
            }
        }
        match self.supertypes_first() {
            Ok(_) => Ok(()),
            Err(t) => Err(WireError::new(format!(
                "inheritance cycle through type {} '{}'",
                t.0,
                self.get(t).name()
            ))),
        }
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

/// Whether row `id` declares `name` in `namespace`.
fn is_named<'a>(
    rows: &'a [TypeRow],
    text: &'a Text,
    namespace: NamespaceId,
    name: &'a str,
) -> impl Fn(u32) -> bool + 'a {
    move |id| {
        let row = &rows[id as usize];
        row.namespace == namespace && text.get(row.name) == name
    }
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
