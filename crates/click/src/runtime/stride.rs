//! Stride scheduling, Click's task scheduler.
//!
//! Each task has a number of *tickets*; its *stride* is `STRIDE1 /
//! tickets`. The scheduler always runs the runnable task with the
//! smallest *pass* value and advances that task's pass by its stride,
//! giving each task CPU share proportional to its tickets —
//! deterministic, and exactly what Click uses to arbitrate between
//! polling tasks.
//!
//! Tasks can *sleep*: a sleeping task is not considered by
//! [`StrideScheduler::next`], so an idle task costs nothing until it is
//! *woken*. Selection is a linear scan over the runnable set only — O(r)
//! in the number of runnable tasks, which on a router with many idle
//! ports is far smaller than the number of registered tasks. As in
//! Click, a woken task's pass is raised to the scheduler's virtual time
//! (the pass of the last task picked), so the credit it "saved" while
//! asleep cannot be spent to take over the scheduler.

/// The stride constant (any large number divisible by common ticket
/// counts; Click uses 1<<16 too).
const STRIDE1: u64 = 1 << 16;

/// Marks an absent entry in the id and runnable-position maps.
const NONE: usize = usize::MAX;

/// One schedulable task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TaskState {
    /// Caller-supplied identifier (e.g. element id).
    id: usize,
    pass: u64,
    stride: u64,
    /// Position in the runnable list, or [`NONE`] while asleep.
    at: usize,
}

/// A stride scheduler over tasks identified by `usize` ids.
#[derive(Debug, Default)]
pub struct StrideScheduler {
    tasks: Vec<TaskState>,
    /// `id -> index into tasks` ([`NONE`] for unknown ids).
    slot: Vec<usize>,
    /// Indices into `tasks` of the runnable tasks, in no order.
    runnable: Vec<usize>,
    /// Virtual time: the pass of the most recently picked task.
    vpass: u64,
}

impl StrideScheduler {
    /// Creates an empty scheduler.
    pub fn new() -> StrideScheduler {
        StrideScheduler::default()
    }

    /// Adds a runnable task with the given ticket count.
    ///
    /// # Panics
    ///
    /// Panics on zero tickets — such a task would never run, which is a
    /// configuration error — and on an id that is already registered.
    pub fn add(&mut self, id: usize, tickets: u32) {
        assert!(tickets > 0, "tasks need at least one ticket");
        if self.slot.len() <= id {
            self.slot.resize(id + 1, NONE);
        }
        assert_eq!(self.slot[id], NONE, "task {id} added twice");
        let stride = STRIDE1 / u64::from(tickets);
        // New tasks join at the current minimum runnable pass so they
        // cannot monopolise the scheduler on entry.
        let pass = self
            .runnable
            .iter()
            .map(|&i| self.tasks[i].pass)
            .min()
            .unwrap_or(self.vpass);
        self.slot[id] = self.tasks.len();
        self.tasks.push(TaskState {
            id,
            pass,
            stride: stride.max(1),
            at: self.runnable.len(),
        });
        self.runnable.push(self.tasks.len() - 1);
    }

    /// Returns the id of the next runnable task and charges it one
    /// quantum. The task stays runnable until [`StrideScheduler::sleep`].
    ///
    /// Returns `None` when no task is runnable.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<usize> {
        let tasks = &self.tasks;
        let idx = *self
            .runnable
            .iter()
            .min_by_key(|&&i| (tasks[i].pass, tasks[i].id))?;
        let task = &mut self.tasks[idx];
        self.vpass = task.pass;
        task.pass += task.stride;
        Some(task.id)
    }

    /// Takes task `id` out of the runnable set until it is woken. A
    /// no-op for sleeping or unknown tasks.
    pub fn sleep(&mut self, id: usize) {
        let Some(idx) = self.index_of(id) else {
            return;
        };
        let at = self.tasks[idx].at;
        if at == NONE {
            return;
        }
        self.runnable.swap_remove(at);
        if let Some(&moved) = self.runnable.get(at) {
            self.tasks[moved].at = at;
        }
        self.tasks[idx].at = NONE;
    }

    /// Makes task `id` runnable, raising its pass to the scheduler's
    /// virtual time. A no-op for runnable or unknown tasks.
    #[inline]
    pub fn wake(&mut self, id: usize) {
        let Some(idx) = self.index_of(id) else {
            return;
        };
        let task = &mut self.tasks[idx];
        if task.at != NONE {
            return;
        }
        task.pass = task.pass.max(self.vpass);
        task.at = self.runnable.len();
        self.runnable.push(idx);
    }

    /// Number of runnable tasks.
    pub fn runnable(&self) -> usize {
        self.runnable.len()
    }

    /// Removes a task (e.g. a source that finished).
    pub fn remove(&mut self, id: usize) {
        let Some(idx) = self.index_of(id) else {
            return;
        };
        self.sleep(id);
        self.slot[id] = NONE;
        self.tasks.swap_remove(idx);
        // The last task moved into `idx`: repoint its id and its
        // runnable entry.
        if let Some(moved) = self.tasks.get(idx).copied() {
            self.slot[moved.id] = idx;
            if moved.at != NONE {
                self.runnable[moved.at] = idx;
            }
        }
    }

    /// Number of registered tasks, asleep or not.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Returns `true` when no tasks remain.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    fn index_of(&self, id: usize) -> Option<usize> {
        self.slot.get(id).copied().filter(|&idx| idx != NONE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_tickets_alternate_fairly() {
        let mut s = StrideScheduler::new();
        s.add(0, 1);
        s.add(1, 1);
        let mut counts = [0usize; 2];
        for _ in 0..100 {
            counts[s.next().unwrap()] += 1;
        }
        assert_eq!(counts, [50, 50]);
    }

    #[test]
    fn tickets_give_proportional_share() {
        let mut s = StrideScheduler::new();
        s.add(0, 3);
        s.add(1, 1);
        let mut counts = [0usize; 2];
        for _ in 0..400 {
            counts[s.next().unwrap()] += 1;
        }
        // Task 0 should run ~3x as often as task 1.
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((2.8..3.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn removal_stops_scheduling() {
        let mut s = StrideScheduler::new();
        s.add(7, 1);
        s.add(8, 1);
        s.remove(7);
        for _ in 0..10 {
            assert_eq!(s.next(), Some(8));
        }
        s.remove(8);
        assert!(s.is_empty());
        assert_eq!(s.next(), None);
    }

    #[test]
    fn late_joiner_is_not_starved_nor_dominant() {
        let mut s = StrideScheduler::new();
        s.add(0, 1);
        for _ in 0..50 {
            s.next();
        }
        s.add(1, 1);
        let mut counts = [0usize; 2];
        for _ in 0..100 {
            counts[s.next().unwrap()] += 1;
        }
        assert!(counts[1] >= 45 && counts[1] <= 55, "counts {counts:?}");
    }

    #[test]
    #[should_panic(expected = "at least one ticket")]
    fn zero_tickets_rejected() {
        StrideScheduler::new().add(0, 0);
    }

    #[test]
    fn sleeping_tasks_are_never_picked() {
        let mut s = StrideScheduler::new();
        for id in 0..4 {
            s.add(id, 1);
        }
        s.sleep(1);
        s.sleep(3);
        s.sleep(3);
        assert_eq!(s.runnable(), 2);
        for _ in 0..20 {
            let id = s.next().unwrap();
            assert!(id == 0 || id == 2, "picked sleeping task {id}");
        }
        s.sleep(0);
        s.sleep(2);
        assert_eq!(s.next(), None);
        assert_eq!(s.len(), 4, "sleeping tasks stay registered");
    }

    #[test]
    fn woken_task_cannot_spend_its_sleep_time() {
        let mut s = StrideScheduler::new();
        s.add(0, 1);
        s.add(1, 1);
        s.sleep(1);
        for _ in 0..100 {
            assert_eq!(s.next(), Some(0));
        }
        s.wake(1);
        s.wake(1);
        // Raised to virtual time, task 1 shares fairly from now on
        // instead of running 100 quanta in a row.
        let mut counts = [0usize; 2];
        for _ in 0..20 {
            counts[s.next().unwrap()] += 1;
        }
        assert_eq!(counts, [10, 10]);
    }

    #[test]
    fn removal_keeps_runnable_set_consistent() {
        let mut s = StrideScheduler::new();
        for id in [5, 9, 2, 7] {
            s.add(id, 1);
        }
        s.sleep(9);
        s.remove(5);
        s.remove(9);
        s.wake(9);
        assert_eq!(s.len(), 2);
        let mut seen = [false; 10];
        for _ in 0..4 {
            seen[s.next().unwrap()] = true;
        }
        assert!(seen[2] && seen[7] && !seen[5] && !seen[9]);
        s.sleep(7);
        assert_eq!(s.next(), Some(2));
    }
}
