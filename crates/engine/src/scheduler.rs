//! The worklist of the SLG derivation forest.
//!
//! The machine's control loop is a worklist of tasks: *expansions* (resolve
//! a derivation node's selected goal) and *answer returns* (resume a
//! consumer with one table answer). Which task runs next is the engine's
//! scheduling strategy — the knob the paper's Section 6.2 discusses (see
//! DESIGN.md, "Arenas, sessions, and scheduling strategies"). Both
//! strategies share one queue of class-tagged tasks and differ only in the
//! end they pop from: the back for depth-first, the front for
//! breadth-first.
//!
//! Completeness of SLG resolution does not depend on task order — both
//! strategies eventually return each pushed task, so they compute the same
//! tables. The differential property test in `tests/prop_table_diff.rs`
//! checks exactly this.

use crate::options::Scheduling;
use std::collections::VecDeque;

/// Coarse classification of a worklist task: the per-class depths are what
/// every [`tablog_trace::Sample`] reports.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) enum TaskClass {
    /// Resolve a derivation node's selected goal.
    Expand,
    /// Resume a consumer with one table answer.
    Return,
}

/// The worklist: tasks in generation order, each tagged with its class so
/// the per-class counts stay exact. [`Scheduling::DepthFirst`] pops the
/// most recent task (LIFO, akin to XSB's local scheduling — the seed
/// engine's order, under which the golden Figure 1 trace is recorded);
/// [`Scheduling::BreadthFirst`] pops the oldest (FIFO).
#[derive(Debug)]
pub(crate) struct Worklist<T> {
    strategy: Scheduling,
    tasks: VecDeque<(TaskClass, T)>,
    expands: usize,
    returns: usize,
}

impl<T> Worklist<T> {
    pub(crate) fn new(strategy: Scheduling) -> Self {
        Worklist {
            strategy,
            tasks: VecDeque::new(),
            expands: 0,
            returns: 0,
        }
    }

    pub(crate) fn push(&mut self, class: TaskClass, task: T) {
        *self.count(class) += 1;
        self.tasks.push_back((class, task));
    }

    /// Hands out the next task, or `None` when the worklist is empty.
    pub(crate) fn pop(&mut self) -> Option<T> {
        let (class, task) = match self.strategy {
            Scheduling::DepthFirst => self.tasks.pop_back(),
            Scheduling::BreadthFirst => self.tasks.pop_front(),
        }?;
        *self.count(class) -= 1;
        Some(task)
    }

    /// Number of pending tasks.
    pub(crate) fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Number of pending tasks of one class, in O(1).
    pub(crate) fn class_len(&self, class: TaskClass) -> usize {
        match class {
            TaskClass::Expand => self.expands,
            TaskClass::Return => self.returns,
        }
    }

    fn count(&mut self, class: TaskClass) -> &mut usize {
        match class {
            TaskClass::Expand => &mut self.expands,
            TaskClass::Return => &mut self.returns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(strategy: Scheduling) -> Worklist<u32> {
        let mut w = Worklist::new(strategy);
        w.push(TaskClass::Expand, 1);
        w.push(TaskClass::Return, 2);
        w.push(TaskClass::Expand, 3);
        w
    }

    fn drain(w: &mut Worklist<u32>) -> Vec<u32> {
        std::iter::from_fn(|| w.pop()).collect()
    }

    #[test]
    fn depth_first_is_lifo_across_classes() {
        let mut w = filled(Scheduling::DepthFirst);
        assert_eq!(w.len(), 3);
        assert_eq!(drain(&mut w), vec![3, 2, 1]);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn breadth_first_is_fifo_across_classes() {
        let mut w = filled(Scheduling::BreadthFirst);
        assert_eq!(drain(&mut w), vec![1, 2, 3]);
    }

    #[test]
    fn class_len_tracks_pushes_and_pops_per_class() {
        for strategy in [Scheduling::DepthFirst, Scheduling::BreadthFirst] {
            let mut w = filled(strategy);
            assert_eq!(w.class_len(TaskClass::Expand), 2, "{strategy}");
            assert_eq!(w.class_len(TaskClass::Return), 1, "{strategy}");
            drain(&mut w);
            assert_eq!(w.class_len(TaskClass::Expand), 0, "{strategy}");
            assert_eq!(w.class_len(TaskClass::Return), 0, "{strategy}");
        }
    }
}
