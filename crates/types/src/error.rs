//! The error a rejected configuration reports.

/// A configuration that a component or the simulator cannot be built
/// from. The message names the check that failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Returns `Err(ConfigError)` from the enclosing function unless `cond`
/// holds. The `format!`-style message is built only when the check fails.
#[macro_export]
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err($crate::ConfigError(format!($($msg)+)));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::ConfigError;

    fn check(ways: usize) -> Result<(), ConfigError> {
        ensure!((1..=16).contains(&ways), "need 1 to 16 ways, got {ways}");
        Ok(())
    }

    #[test]
    fn ensure_returns_the_formatted_message_only_on_failure() {
        assert_eq!(check(4), Ok(()));
        assert_eq!(
            check(0).unwrap_err().to_string(),
            "need 1 to 16 ways, got 0"
        );
        assert!(check(17).is_err());
    }
}
