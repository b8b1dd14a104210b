//! The DRAM command set issued by the memory controller.

use crate::address::PhysicalAddress;

/// Kind of DRAM command, without its target address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommandKind {
    /// Activate (open) a row in one bank.
    Activate,
    /// Precharge (close) the open row of one bank.
    Precharge,
    /// Read one burst from the open row.
    Read,
    /// Write one burst to the open row.
    Write,
    /// All-bank refresh.
    RefreshAll,
    /// Per-bank refresh of a single bank.
    RefreshBank,
}

/// A concrete DRAM command with its target.
///
/// For [`CommandKind::RefreshAll`] the address fields are ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Command {
    /// The command kind.
    pub kind: CommandKind,
    /// Target address (bank/row/column as applicable).
    pub address: PhysicalAddress,
}

impl Command {
    /// Creates an activate command for `address`'s bank and row.
    #[must_use]
    pub fn activate(address: PhysicalAddress) -> Self {
        Self {
            kind: CommandKind::Activate,
            address,
        }
    }

    /// Creates a precharge command for `address`'s bank.
    #[must_use]
    pub fn precharge(address: PhysicalAddress) -> Self {
        Self {
            kind: CommandKind::Precharge,
            address,
        }
    }

    /// Creates a read command for `address`.
    #[must_use]
    pub fn read(address: PhysicalAddress) -> Self {
        Self {
            kind: CommandKind::Read,
            address,
        }
    }

    /// Creates a write command for `address`.
    #[must_use]
    pub fn write(address: PhysicalAddress) -> Self {
        Self {
            kind: CommandKind::Write,
            address,
        }
    }
}

impl std::fmt::Display for Command {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            CommandKind::Activate => write!(f, "ACT  {}", self.address),
            CommandKind::Precharge => write!(
                f,
                "PRE  BG{} B{}",
                self.address.bank_group, self.address.bank
            ),
            CommandKind::Read => write!(f, "RD   {}", self.address),
            CommandKind::Write => write!(f, "WR   {}", self.address),
            CommandKind::RefreshAll => write!(f, "REFab"),
            CommandKind::RefreshBank => {
                write!(
                    f,
                    "REFpb BG{} B{}",
                    self.address.bank_group, self.address.bank
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        let a = PhysicalAddress::new(0, 1, 2, 3);
        assert_eq!(Command::activate(a).kind, CommandKind::Activate);
        assert_eq!(Command::precharge(a).kind, CommandKind::Precharge);
        assert_eq!(Command::read(a).kind, CommandKind::Read);
        assert_eq!(Command::write(a).kind, CommandKind::Write);
    }

    #[test]
    fn display_is_nonempty() {
        let a = PhysicalAddress::new(0, 1, 2, 3);
        for cmd in [
            Command::activate(a),
            Command::precharge(a),
            Command::read(a),
            Command::write(a),
            Command {
                kind: CommandKind::RefreshAll,
                address: a,
            },
            Command {
                kind: CommandKind::RefreshBank,
                address: a,
            },
        ] {
            assert!(!cmd.to_string().is_empty());
        }
    }
}
