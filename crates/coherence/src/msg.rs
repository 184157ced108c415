//! Coherence protocol messages and network nodes.

/// A network endpoint: the shared directory (LLC slice) or a core's private
/// cache controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Node {
    /// The directory.
    Dir,
    /// Core `i`'s private cache.
    Core(usize),
}

impl std::fmt::Display for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Node::Dir => write!(f, "Dir"),
            Node::Core(i) => write!(f, "C{i}"),
        }
    }
}

/// Protocol messages of the directory-based MSI protocol (§3.1 of the
/// paper, following the Sorin–Hill–Wood primer's naming).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Msg {
    /// Core → Dir: request Shared (read) permission.
    GetS { line: u64, from: usize },
    /// Core → Dir: request Modify (write) permission.
    GetM { line: u64, from: usize },
    /// Dir → Core: data response. `acks` is the number of `InvAck`s the
    /// requester must collect before its GetM completes (0 for GetS).
    Data { line: u64, value: u64, acks: u64 },
    /// Dir → sharer: invalidate your Shared copy and ack to `requester`.
    Inv { line: u64, requester: usize },
    /// Sharer → requester: invalidation acknowledgement.
    InvAck { line: u64 },
    /// Dir → owner: downgrade to Shared; send data to `requester` and a
    /// writeback copy to the directory.
    FwdGetS { line: u64, requester: usize },
    /// Dir → owner: invalidate; send data (with M permission) to
    /// `requester`.
    FwdGetM { line: u64, requester: usize },
    /// Previous owner → new owner/reader: the line's data.
    DataOwner { line: u64, value: u64 },
    /// Downgraded owner → Dir: writeback of the latest value.
    WbData { line: u64, value: u64, from: usize },
}

impl Msg {
    /// The cache line this message concerns.
    pub fn line(&self) -> u64 {
        match *self {
            Msg::GetS { line, .. }
            | Msg::GetM { line, .. }
            | Msg::Data { line, .. }
            | Msg::Inv { line, .. }
            | Msg::InvAck { line }
            | Msg::FwdGetS { line, .. }
            | Msg::FwdGetM { line, .. }
            | Msg::DataOwner { line, .. }
            | Msg::WbData { line, .. } => line,
        }
    }

    /// Short name for traces and stats.
    pub fn kind(&self) -> &'static str {
        crate::stats::MSG_KINDS[self.kind_id()]
    }

    /// Dense index into [`crate::stats::MSG_KINDS`] — the stats arrays'
    /// counter slot for this message kind.
    pub(crate) fn kind_id(&self) -> usize {
        match self {
            Msg::GetS { .. } => 0,
            Msg::GetM { .. } => 1,
            Msg::Data { .. } => 2,
            Msg::Inv { .. } => 3,
            Msg::InvAck { .. } => 4,
            Msg::FwdGetS { .. } => 5,
            Msg::FwdGetM { .. } => 6,
            Msg::DataOwner { .. } => 7,
            Msg::WbData { .. } => 8,
        }
    }
}
