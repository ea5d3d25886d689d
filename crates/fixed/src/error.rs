//! The error type for fixed-point format construction.

use std::error::Error;
use std::fmt;

/// Error returned when constructing an invalid [`QFormat`](crate::QFormat).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FormatError {
    /// The total width (sign + integer + fraction) exceeds the supported
    /// maximum of 32 bits.
    TooWide {
        /// Requested integer bits.
        int_bits: u8,
        /// Requested fraction bits.
        frac_bits: u8,
    },
    /// The format has zero value bits (both fields empty).
    Empty,
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FormatError::TooWide { int_bits, frac_bits } => {
                write!(f, "fixed-point format q{int_bits}.{frac_bits} exceeds 32 total bits")
            }
            FormatError::Empty => write!(f, "fixed-point format must have at least one value bit"),
        }
    }
}

impl Error for FormatError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_too_wide() {
        let err = FormatError::TooWide { int_bits: 30, frac_bits: 10 };
        assert!(err.to_string().contains("q30.10"));
    }

    #[test]
    fn display_empty() {
        assert!(FormatError::Empty.to_string().contains("at least one"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<FormatError>();
    }
}
