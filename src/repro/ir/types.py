"""Type system for the repro IR.

The IR is a small, typed, LLVM-flavoured SSA representation.  Types are
immutable and interned, so they can be compared with ``is`` or ``==``
interchangeably and used as dictionary keys.

The types mirror the subset of LLVM's type system that the SLP vectorizer
touches: void, fixed-width integers, IEEE floats, pointers, and fixed-width
vectors of scalars.
"""

from __future__ import annotations

from functools import lru_cache


class Type:
    """Base class for all IR types.

    Concrete types are interned: constructing the same type twice returns
    the same object, which makes identity comparison safe everywhere.
    """

    _cache: dict[tuple, "Type"] = {}

    def __new__(cls, *args):
        key = (cls, *args)
        cached = Type._cache.get(key)
        if cached is None:
            cached = super().__new__(cls)
            Type._cache[key] = cached
        return cached

    @property
    def is_void(self) -> bool:
        return isinstance(self, VoidType)

    @property
    def is_integer(self) -> bool:
        return isinstance(self, IntType)

    @property
    def is_float(self) -> bool:
        return isinstance(self, FloatType)

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    @property
    def is_vector(self) -> bool:
        return isinstance(self, VectorType)

    @property
    def is_scalar(self) -> bool:
        """True for non-aggregate first-class value types (int/float)."""
        return self.is_integer or self.is_float

    def size_bits(self) -> int:
        """Size of a value of this type in bits."""
        raise NotImplementedError

    def size_bytes(self) -> int:
        """Size of a value of this type in bytes (rounded up)."""
        return (self.size_bits() + 7) // 8

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.__class__.__name__} {self}>"


class VoidType(Type):
    """The type of instructions that produce no value (e.g. stores)."""

    def size_bits(self) -> int:
        return 0

    def __str__(self) -> str:
        return "void"


class IntType(Type):
    """A fixed-width two's-complement integer type, e.g. ``i64``."""

    def __init__(self, bits: int):
        if bits <= 0:
            raise ValueError(f"integer width must be positive, got {bits}")
        self.bits = bits

    def size_bits(self) -> int:
        return self.bits

    def __str__(self) -> str:
        return f"i{self.bits}"


class FloatType(Type):
    """An IEEE-754 floating point type: ``f32`` or ``f64``."""

    def __init__(self, bits: int):
        if bits not in (32, 64):
            raise ValueError(f"float width must be 32 or 64, got {bits}")
        self.bits = bits

    def size_bits(self) -> int:
        return self.bits

    def __str__(self) -> str:
        return f"f{self.bits}"


class PointerType(Type):
    """A pointer to a value of ``pointee`` type.

    Pointers are modelled as (base object, element offset) pairs at run
    time; their nominal size is 64 bits for costing purposes.
    """

    def __init__(self, pointee: Type):
        if pointee.is_void:
            raise ValueError("cannot form a pointer to void")
        self.pointee = pointee

    def size_bits(self) -> int:
        return 64

    def __str__(self) -> str:
        return f"{self.pointee}*"


class VectorType(Type):
    """A fixed-length SIMD vector of a scalar element type."""

    def __init__(self, element: Type, count: int):
        if not element.is_scalar:
            raise ValueError(f"vector element must be scalar, got {element}")
        if count < 2:
            raise ValueError(f"vector length must be >= 2, got {count}")
        self.element = element
        self.count = count

    def size_bits(self) -> int:
        return self.element.size_bits() * self.count

    def __str__(self) -> str:
        return f"<{self.count} x {self.element}>"


# Commonly used interned types.
VOID = VoidType()
I1 = IntType(1)
I8 = IntType(8)
I16 = IntType(16)
I32 = IntType(32)
I64 = IntType(64)
F32 = FloatType(32)
F64 = FloatType(64)


def scalar_of(ty: Type) -> Type:
    """Return the scalar element type of ``ty`` (identity for scalars)."""
    if ty.is_vector:
        return ty.element
    return ty


def vector_of(ty: Type, count: int) -> VectorType:
    """Return the vector type with ``count`` lanes of scalar type ``ty``."""
    if ty.is_vector:
        raise ValueError(f"cannot form a vector of vectors: {ty}")
    return VectorType(ty, count)


@lru_cache(maxsize=1024)
def parse_type(text: str) -> Type:
    """Parse a type from its textual form, e.g. ``i64``, ``f32*``,
    ``<4 x i32>``.  Memoized: types are interned and immutable, and a
    module's text repeats the same few spellings."""
    text = text.strip()
    if text.endswith("*"):
        return PointerType(parse_type(text[:-1]))
    if text == "void":
        return VOID
    if text.startswith("<") and text.endswith(">"):
        inner = text[1:-1]
        count_text, _, elem_text = inner.partition("x")
        return VectorType(parse_type(elem_text), int(count_text.strip()))
    if text.startswith("i"):
        return IntType(int(text[1:]))
    if text.startswith("f"):
        return FloatType(int(text[1:]))
    raise ValueError(f"unknown type: {text!r}")
