//! Type rows stored in the [`crate::TypeTable`] and the view
//! [`crate::TypeTable::get`] hands out.

use std::fmt;

use crate::{NamespaceId, PrimKind, TypeId, TypeTable};

/// The kind of a type definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeKind {
    /// A reference type with single inheritance. `base` is `None` only for
    /// `System.Object` itself; every other class implicitly derives `Object`
    /// until [`crate::TypeTable::set_base`] is called.
    Class {
        /// Direct base class, if explicitly set.
        base: Option<TypeId>,
    },
    /// An interface. Its "bases" are the interfaces it extends, listed by
    /// [`TypeDef::interfaces`].
    Interface,
    /// A user-defined value type. Boxes to `Object`.
    Struct,
    /// An enumeration. Boxes to `Object`; comparable with itself.
    Enum,
    /// A built-in primitive.
    Primitive(PrimKind),
    /// The `void` pseudo-type: the return "type" of methods returning
    /// nothing. No conversions to or from it exist.
    Void,
}

/// Fields of a type row's kind word, the snapshot's type-row kind word:
/// the kind tag in bits 0–7, a primitive's kind index in bits 8–15, "has
/// an explicit base" in bit 16 and "comparable" in bit 17.
pub(crate) mod kind {
    pub const CLASS: u32 = 0;
    pub const INTERFACE: u32 = 1;
    pub const STRUCT: u32 = 2;
    pub const ENUM: u32 = 3;
    pub const PRIMITIVE: u32 = 4;
    pub const VOID: u32 = 5;
    pub const TAG: u32 = 0xff;
    pub const PRIM_SHIFT: u32 = 8;
    pub const HAS_BASE: u32 = 1 << 16;
    pub const COMPARABLE: u32 = 1 << 17;
    /// Tag, primitive index and the two flags.
    pub const KNOWN_BITS: u32 = 0x3_ffff;
}

/// A type row: 24 bytes, the snapshot's 20-byte row plus the start of the
/// type's run in the table's interface table. The name is an id into the
/// table's text, `base` is meaningful only under
/// [`kind::HAS_BASE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TypeRow {
    pub name: u32,
    pub namespace: NamespaceId,
    pub word: u32,
    pub base: u32,
    pub first_iface: u32,
    pub n_ifaces: u32,
}

const _: () = assert!(std::mem::size_of::<TypeRow>() <= 24);

impl TypeRow {
    /// A row of no interfaces.
    pub fn new(name: u32, namespace: NamespaceId, kind: TypeKind, comparable: bool) -> Self {
        let (tag, base) = match kind {
            TypeKind::Class { base } => (kind::CLASS, base),
            TypeKind::Interface => (kind::INTERFACE, None),
            TypeKind::Struct => (kind::STRUCT, None),
            TypeKind::Enum => (kind::ENUM, None),
            TypeKind::Primitive(p) => (kind::PRIMITIVE | p.index() << kind::PRIM_SHIFT, None),
            TypeKind::Void => (kind::VOID, None),
        };
        let mut row = TypeRow {
            name,
            namespace,
            word: tag,
            base: 0,
            first_iface: 0,
            n_ifaces: 0,
        };
        row.set_base(base);
        row.set_comparable(comparable);
        row
    }

    pub fn tag(&self) -> u32 {
        self.word & kind::TAG
    }

    /// The explicit base class.
    pub fn base(&self) -> Option<TypeId> {
        (self.word & kind::HAS_BASE != 0).then_some(TypeId(self.base))
    }

    /// Sets or clears the explicit base class of a class row.
    pub fn set_base(&mut self, base: Option<TypeId>) {
        match base {
            Some(b) => {
                self.word |= kind::HAS_BASE;
                self.base = b.0;
            }
            None => {
                self.word &= !kind::HAS_BASE;
                self.base = 0;
            }
        }
    }

    pub fn set_comparable(&mut self, comparable: bool) {
        if comparable {
            self.word |= kind::COMPARABLE;
        } else {
            self.word &= !kind::COMPARABLE;
        }
    }

    pub fn kind(&self) -> TypeKind {
        match self.tag() {
            kind::CLASS => TypeKind::Class { base: self.base() },
            kind::INTERFACE => TypeKind::Interface,
            kind::STRUCT => TypeKind::Struct,
            kind::ENUM => TypeKind::Enum,
            kind::PRIMITIVE => {
                TypeKind::Primitive(PrimKind::ALL[(self.word >> kind::PRIM_SHIFT & 0xff) as usize])
            }
            kind::VOID => TypeKind::Void,
            // Rows are built by `new` or checked by the decoder.
            t => unreachable!("type row with kind tag {t}"),
        }
    }

    pub fn iface_range(&self) -> std::ops::Range<usize> {
        let first = self.first_iface as usize;
        first..first + self.n_ifaces as usize
    }
}

/// A single type definition: a `Copy` view over one row of a
/// [`TypeTable`], borrowing its name and interface list from the table.
#[derive(Clone, Copy)]
pub struct TypeDef<'a> {
    table: &'a TypeTable,
    row: &'a TypeRow,
}

impl<'a> TypeDef<'a> {
    pub(crate) fn new(table: &'a TypeTable, row: &'a TypeRow) -> Self {
        TypeDef { table, row }
    }

    /// Simple (unqualified) name of the type.
    pub fn name(&self) -> &'a str {
        self.table.namespaces().text().get(self.row.name)
    }

    /// Namespace the type is declared in.
    pub fn namespace(&self) -> NamespaceId {
        self.row.namespace
    }

    /// The definition kind.
    pub fn kind(&self) -> TypeKind {
        self.row.kind()
    }

    /// Interfaces this type declares it implements (for interfaces: extends).
    pub fn interfaces(&self) -> &'a [TypeId] {
        self.table.interface_run(self.row)
    }

    /// Whether values of this type are ordered by the relational operators
    /// (`<`, `>=`, ...). Numeric primitives and enums are ordered by default;
    /// other types opt in via [`crate::TypeTable::set_comparable`] (the paper's
    /// `DateTime` example).
    pub fn is_comparable(&self) -> bool {
        self.row.word & kind::COMPARABLE != 0
    }

    /// Whether this is a class (including `Object` and `string`-as-class
    /// tables that choose to model it so).
    pub fn is_class(&self) -> bool {
        self.row.tag() == kind::CLASS
    }

    /// Whether this is an interface.
    pub fn is_interface(&self) -> bool {
        self.row.tag() == kind::INTERFACE
    }

    /// Whether this is a built-in primitive (`bool`, the numerics, `string`).
    ///
    /// The ranking function's common-namespace term skips primitive-typed
    /// arguments; this predicate is what it consults.
    pub fn is_primitive(&self) -> bool {
        self.row.tag() == kind::PRIMITIVE
    }

    /// The primitive kind, if this is a primitive.
    pub fn prim_kind(&self) -> Option<PrimKind> {
        match self.kind() {
            TypeKind::Primitive(p) => Some(p),
            _ => None,
        }
    }

    /// Whether this is a value type (struct, enum, or non-string primitive).
    pub fn is_value_type(&self) -> bool {
        match self.kind() {
            TypeKind::Struct | TypeKind::Enum => true,
            TypeKind::Primitive(p) => p != PrimKind::String,
            _ => false,
        }
    }
}

impl fmt::Debug for TypeDef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TypeDef")
            .field("name", &self.name())
            .field("namespace", &self.namespace())
            .field("kind", &self.kind())
            .field("interfaces", &self.interfaces())
            .field("comparable", &self.is_comparable())
            .finish()
    }
}
