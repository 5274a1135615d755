//! Virtual and physical address newtypes.
//!
//! The paper assumes a 49-bit virtual and 47-bit physical address space
//! (NVIDIA Pascal MMU format, [60] in the paper). We store both as `u64`
//! and expose the architectural widths as constants so page-table code can
//! validate canonical addresses.

use std::fmt;
use std::ops::{Add, Sub};

/// Architectural virtual address width in bits (49, per the Pascal MMU
/// format the paper references).
pub const VIRT_ADDR_BITS: u32 = 49;

/// Architectural physical address width in bits (47).
pub const PHYS_ADDR_BITS: u32 = 47;

macro_rules! addr_newtype {
    ($(#[$doc:meta])* $name:ident, $bits:expr) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u64);

        impl $name {
            /// Number of architectural bits in this address kind.
            pub const BITS: u32 = $bits;

            /// Creates an address from a raw value.
            ///
            /// The value is masked to the architectural width so arithmetic
            /// that overflows the address space wraps inside it instead of
            /// silently escaping.
            pub const fn new(value: u64) -> Self {
                Self(value & ((1u64 << $bits) - 1))
            }

            /// Returns the raw address value.
            pub const fn value(self) -> u64 {
                self.0
            }

            /// Returns `true` if the raw value fits the architectural width
            /// without masking.
            pub const fn is_canonical(value: u64) -> bool {
                value < (1u64 << $bits)
            }

            /// Aligns the address down to a power-of-two boundary.
            ///
            /// # Panics
            ///
            /// Panics if `align` is not a power of two.
            // The SM coalescer aligns every lane of every load.
            #[inline]
            pub fn align_down(self, align: u64) -> Self {
                assert!(align.is_power_of_two(), "alignment must be a power of two");
                Self(self.0 & !(align - 1))
            }

            /// Offset of the address within an `align`-byte block.
            ///
            /// # Panics
            ///
            /// Panics if `align` is not a power of two.
            pub fn offset_in(self, align: u64) -> u64 {
                assert!(align.is_power_of_two(), "alignment must be a power of two");
                self.0 & (align - 1)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({:#x})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl fmt::LowerHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl fmt::UpperHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::UpperHex::fmt(&self.0, f)
            }
        }

        impl From<$name> for u64 {
            fn from(a: $name) -> u64 {
                a.0
            }
        }

        impl Add<u64> for $name {
            type Output = $name;
            fn add(self, rhs: u64) -> $name {
                $name::new(self.0.wrapping_add(rhs))
            }
        }

        impl Sub<u64> for $name {
            type Output = $name;
            fn sub(self, rhs: u64) -> $name {
                $name::new(self.0.wrapping_sub(rhs))
            }
        }
    };
}

addr_newtype!(
    /// A 49-bit GPU virtual address.
    ///
    /// # Example
    ///
    /// ```
    /// use swgpu_types::VirtAddr;
    /// let va = VirtAddr::new(0x1_0000_1234);
    /// assert_eq!(va.offset_in(0x1000), 0x234);
    /// ```
    VirtAddr,
    VIRT_ADDR_BITS
);

addr_newtype!(
    /// A 47-bit GPU physical address.
    ///
    /// # Example
    ///
    /// ```
    /// use swgpu_types::PhysAddr;
    /// let pa = PhysAddr::new(0xdead_beef);
    /// assert_eq!(pa.align_down(0x100).value(), 0xdead_be00);
    /// ```
    PhysAddr,
    PHYS_ADDR_BITS
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_to_architectural_width() {
        let va = VirtAddr::new(u64::MAX);
        assert_eq!(va.value(), (1u64 << VIRT_ADDR_BITS) - 1);
        let pa = PhysAddr::new(u64::MAX);
        assert_eq!(pa.value(), (1u64 << PHYS_ADDR_BITS) - 1);
    }

    #[test]
    fn canonical_check() {
        assert!(VirtAddr::is_canonical(0));
        assert!(VirtAddr::is_canonical((1 << 49) - 1));
        assert!(!VirtAddr::is_canonical(1 << 49));
        assert!(!PhysAddr::is_canonical(1 << 47));
    }

    #[test]
    fn align_and_offset_are_complementary() {
        let va = VirtAddr::new(0x1234_5678);
        for align in [64u64, 128, 1 << 16, 1 << 21] {
            assert_eq!(
                va.align_down(align).value() + va.offset_in(align),
                va.value()
            );
        }
    }

    #[test]
    fn arithmetic_wraps_within_address_space() {
        let top = VirtAddr::new((1 << 49) - 1);
        assert_eq!((top + 1).value(), 0);
        let zero = VirtAddr::new(0);
        assert_eq!((zero - 1).value(), (1 << 49) - 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn align_down_rejects_non_power_of_two() {
        VirtAddr::new(0x1000).align_down(3);
    }

    #[test]
    fn debug_and_display_are_hex() {
        let pa = PhysAddr::new(0xabc);
        assert_eq!(format!("{pa}"), "0xabc");
        assert_eq!(format!("{pa:?}"), "PhysAddr(0xabc)");
        assert_eq!(format!("{pa:x}"), "abc");
        assert_eq!(format!("{pa:X}"), "ABC");
    }
}
