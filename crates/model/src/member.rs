//! Methods, parameters and fields/properties.

use pex_types::TypeId;

use crate::{Body, MethodId, Name};

/// Member visibility. The model keeps only the distinction the completion
/// engine needs: `Private` members are visible only inside their declaring
/// type, everything else is `Public`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Visibility {
    /// Visible everywhere.
    #[default]
    Public,
    /// Visible only within the declaring type.
    Private,
}

/// A formal parameter of a [`Method`]: 24 bytes, its name inline when
/// short (see [`Name`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Parameter name (used for rendering and corpus realism).
    pub name: Name,
    /// Declared parameter type.
    pub ty: TypeId,
}

/// A method definition.
///
/// Following the paper, the receiver of an instance method is treated as its
/// first argument when completing unknown-method queries; the model keeps the
/// receiver implicit (`is_static == false`) and [`Method::full_param_types`]
/// exposes the receiver-first view.
///
/// A row is 64 bytes: the name is a [`Name`], the parameters an exactly
/// sized `Box<[Param]>`, and the rare body is boxed.
#[derive(Debug, Clone)]
pub struct Method {
    pub(crate) name: Name,
    pub(crate) declaring: TypeId,
    pub(crate) is_static: bool,
    pub(crate) params: Box<[Param]>,
    pub(crate) ret: TypeId,
    pub(crate) visibility: Visibility,
    pub(crate) overrides: Option<MethodId>,
    /// Boxed: most methods (library surface) have no body, and an inline
    /// `Body` would widen every row of the method table.
    pub(crate) body: Option<Box<Body>>,
}

// Row sizes of the member tables. A `String` name makes each row 8 bytes
// wider (`Param` 32, `Field` 40), a `Vec<Param>` widens `Method` by 8 more
// (80), and an inline `Option<Body>` would make it 128.
const _: () = assert!(std::mem::size_of::<Param>() <= 24);
const _: () = assert!(std::mem::size_of::<Field>() <= 32);
const _: () = assert!(std::mem::size_of::<Method>() <= 64);

impl Method {
    /// Method name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Type declaring this method.
    pub fn declaring(&self) -> TypeId {
        self.declaring
    }

    /// Whether the method is static.
    pub fn is_static(&self) -> bool {
        self.is_static
    }

    /// Declared (explicit) parameters, excluding any receiver.
    pub fn params(&self) -> &[Param] {
        &self.params
    }

    /// Declared return type (`void` for none).
    pub fn return_type(&self) -> TypeId {
        self.ret
    }

    /// Member visibility.
    pub fn visibility(&self) -> Visibility {
        self.visibility
    }

    /// The base-class method this one overrides, if any. Override chains
    /// share abstract-type slots (paper Section 4.1).
    pub fn overrides(&self) -> Option<MethodId> {
        self.overrides
    }

    /// The method body, when the model includes one (client code does,
    /// library surface usually does not).
    pub fn body(&self) -> Option<&Body> {
        self.body.as_deref()
    }

    /// Number of arguments a call carries: declared parameters plus one for
    /// the receiver of instance methods. This is the paper's notion of
    /// "arguments (including the receiver)".
    pub fn full_arity(&self) -> usize {
        self.params.len() + usize::from(!self.is_static)
    }

    /// Receiver-first parameter types: for instance methods the declaring
    /// type followed by the declared parameter types; for static methods just
    /// the declared parameter types.
    pub fn full_param_types(&self) -> impl Iterator<Item = TypeId> + '_ {
        let receiver = (!self.is_static).then_some(self.declaring);
        receiver.into_iter().chain(self.params.iter().map(|p| p.ty))
    }
}

/// A field or property definition.
///
/// The paper treats C# properties as syntactic sugar for fields, so the model
/// stores both in one table with an [`Field::is_property`] flag (kept for
/// rendering fidelity; the engine treats them identically). A row is 32
/// bytes, its name a [`Name`].
#[derive(Debug, Clone)]
pub struct Field {
    pub(crate) name: Name,
    pub(crate) declaring: TypeId,
    pub(crate) is_static: bool,
    pub(crate) ty: TypeId,
    pub(crate) visibility: Visibility,
    pub(crate) is_property: bool,
}

impl Field {
    /// Field or property name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Type declaring this member.
    pub fn declaring(&self) -> TypeId {
        self.declaring
    }

    /// Whether the member is static. Enum members are modelled as static
    /// fields of the enum type.
    pub fn is_static(&self) -> bool {
        self.is_static
    }

    /// Declared type of the stored value.
    pub fn ty(&self) -> TypeId {
        self.ty
    }

    /// Member visibility.
    pub fn visibility(&self) -> Visibility {
        self.visibility
    }

    /// Whether the member was declared as a property.
    pub fn is_property(&self) -> bool {
        self.is_property
    }
}
