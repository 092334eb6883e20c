//! Outcomes of the bounded queues' push and pop: the admission
//! [`crate::scheduler::ClassScheduler`] and the replicas' dispatch
//! [`crate::scheduler::StealingDispatch`].

/// Outcome of a failed push.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum PushError<T> {
    /// The queue was at capacity; the item is handed back.
    Full(T),
    /// The queue was closed; the item is handed back.
    Closed(T),
}

/// Outcome of a blocking pop with timeout.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum PopResult<T> {
    /// An item was dequeued.
    Item(T),
    /// The timeout elapsed with the queue still open.
    TimedOut,
    /// The queue is closed and fully drained.
    Closed,
}
