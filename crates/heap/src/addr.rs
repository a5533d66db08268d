//! Virtual addresses in the simulated address space.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The null address. Writing [`NULL`] into a pointer slot clears it.
pub const NULL: Addr = Addr(0);

/// A virtual address in the simulated heap's address space.
///
/// `Addr` is what mutator programs hold in their (simulated) registers,
/// stack slots, and globals, and what they store into heap objects via
/// [`SimHeap::write_ptr`](crate::SimHeap::write_ptr). It is a plain
/// 64-bit value: it may be null, dangling, or interior to an object —
/// just like a pointer in a C program.
///
/// # Example
///
/// ```
/// use sim_heap::{Addr, NULL};
///
/// let a = Addr::new(0x1000_0000);
/// assert_eq!(a.offset(8).get(), 0x1000_0008);
/// assert!(!a.is_null());
/// assert!(NULL.is_null());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Addr(pub(crate) u64);

impl Addr {
    /// Creates an address from its raw 64-bit value.
    #[inline]
    pub fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw 64-bit value.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }

    /// Returns `true` if this is the null address.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Returns the address `bytes` bytes past `self`.
    ///
    /// # Panics
    ///
    /// Panics on address-space overflow, which indicates a defect in the
    /// mutator driving the simulation.
    #[inline]
    pub fn offset(self, bytes: u64) -> Addr {
        Addr(self.0.checked_add(bytes).expect("address overflow"))
    }

    /// Returns the distance in bytes from `base` to `self`.
    ///
    /// Returns `None` if `self < base`.
    #[inline]
    pub fn offset_from(self, base: Addr) -> Option<u64> {
        self.0.checked_sub(base.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_is_null() {
        assert!(NULL.is_null());
        assert_eq!(NULL.get(), 0);
        assert!(!Addr::new(1).is_null());
    }

    #[test]
    fn offset_arithmetic() {
        let a = Addr::new(100);
        assert_eq!(a.offset(28), Addr::new(128));
        assert_eq!(Addr::new(128).offset_from(a), Some(28));
        assert_eq!(a.offset_from(Addr::new(128)), None);
    }

    #[test]
    #[should_panic(expected = "address overflow")]
    fn offset_overflow_panics() {
        Addr::new(u64::MAX).offset(1);
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(Addr::new(1) < Addr::new(2));
        assert_eq!(Addr::new(7), Addr::from(7));
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(Addr::new(0x1000).to_string(), "0x1000");
        assert_eq!(format!("{:x}", Addr::new(255)), "ff");
        assert_eq!(format!("{:X}", Addr::new(255)), "FF");
    }
}
