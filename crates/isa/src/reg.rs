use std::fmt;

/// Number of integer architectural registers (`r0` is hardwired to zero).
pub const NUM_INT_REGS: u8 = 32;
/// Number of floating-point architectural registers.
pub const NUM_FP_REGS: u8 = 32;
/// Total architectural register namespace (integer then floating-point).
pub const NUM_ARCH_REGS: u8 = NUM_INT_REGS + NUM_FP_REGS;

/// Conventional stack pointer (`r30`).
pub const SP: Reg = Reg(30);
/// Conventional link/return-address register (`r31`, written by `jal`).
pub const RA: Reg = Reg(31);
/// The hardwired zero register (`r0`).
pub const ZERO: Reg = Reg(0);

/// An architectural register in the unified namespace used by rename.
///
/// Indices `0..32` are the integer registers `r0..r31`; indices `32..64`
/// are the floating-point registers `f0..f31`. `r0` reads as zero and
/// ignores writes. The physical register file behind rename is unified
/// (integer and floating-point values share physical registers), matching
/// the machine evaluated in the paper.
///
/// # Examples
///
/// ```
/// use ubrc_isa::Reg;
///
/// let r5 = Reg::int(5);
/// let f2 = Reg::fp(2);
/// assert_eq!(r5.to_string(), "r5");
/// assert_eq!(f2.to_string(), "f2");
/// assert_eq!(f2.index(), 34);
/// assert!(Reg::int(0).is_zero());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// The integer register `r{i}`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 32`.
    pub const fn int(i: u8) -> Self {
        assert!(i < NUM_INT_REGS);
        Reg(i)
    }

    /// The floating-point register `f{i}`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 32`.
    pub const fn fp(i: u8) -> Self {
        assert!(i < NUM_FP_REGS);
        Reg(NUM_INT_REGS + i)
    }

    /// Builds a register from its unified index.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 64`.
    pub const fn from_index(i: u8) -> Self {
        assert!(i < NUM_ARCH_REGS);
        Reg(i)
    }

    /// The unified architectural index in `0..64`.
    pub const fn index(self) -> u8 {
        self.0
    }

    /// True for integer registers.
    pub const fn is_int(self) -> bool {
        self.0 < NUM_INT_REGS
    }

    /// True for floating-point registers.
    pub const fn is_fp(self) -> bool {
        self.0 >= NUM_INT_REGS
    }

    /// True for the hardwired zero register `r0`.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The index within the register's own bank (`r5` and `f5` both
    /// return 5).
    pub const fn bank_index(self) -> u8 {
        self.0 % NUM_INT_REGS
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_int() {
            write!(f, "r{}", self.0)
        } else {
            write!(f, "f{}", self.0 - NUM_INT_REGS)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_and_fp_namespaces_are_disjoint() {
        assert_ne!(Reg::int(3), Reg::fp(3));
        assert_eq!(Reg::fp(0).index(), 32);
        assert!(Reg::int(31).is_int());
        assert!(Reg::fp(31).is_fp());
    }

    #[test]
    fn bank_index_strips_the_bank() {
        assert_eq!(Reg::int(7).bank_index(), 7);
        assert_eq!(Reg::fp(7).bank_index(), 7);
    }

    #[test]
    fn from_index_roundtrips() {
        for i in 0..NUM_ARCH_REGS {
            assert_eq!(Reg::from_index(i).index(), i);
        }
    }

    #[test]
    #[should_panic]
    fn int_rejects_out_of_range() {
        let _ = Reg::int(32);
    }

    #[test]
    fn display_names() {
        assert_eq!(ZERO.to_string(), "r0");
        assert_eq!(SP.to_string(), "r30");
        assert_eq!(RA.to_string(), "r31");
        assert_eq!(Reg::fp(12).to_string(), "f12");
    }

    #[test]
    fn only_r0_is_zero() {
        assert!(ZERO.is_zero());
        assert!(!Reg::int(1).is_zero());
        assert!(!Reg::fp(0).is_zero());
    }
}
