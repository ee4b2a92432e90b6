//! Per-trustlet cycle attribution.
//!
//! The machine charges each retired instruction's cost to the *domain*
//! owning its instruction pointer — the OS code region, a trustlet code
//! region, or the catch-all `other`. Cycles spent inside the exception
//! engine (which runs on behalf of no instruction) are charged to the
//! `exception_engine` pseudo-domain, so attributed totals always sum to
//! the machine's cycle counter.

use std::collections::BTreeMap;

/// A named attribution domain: one or more half-open IP ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Domain {
    name: String,
    ranges: Vec<(u32, u32)>,
}

/// Per-domain attributed cycles, as reported.
pub type DomainReport = Vec<(String, u64)>;

/// The cycle-attribution engine.
///
/// Lookup is cached on the last-hit domain: straight-line execution pays
/// one range comparison per instruction, a full scan only on domain
/// crossings.
#[derive(Debug, Default, Clone)]
pub struct Attribution {
    domains: Vec<Domain>,
    counts: Vec<u64>,
    other: u64,
    specials: BTreeMap<String, u64>,
    /// Cache: domain of the previous charge (`None` = `other`).
    last: Option<usize>,
    /// The range of `last` that matched, when `last` is `Some`:
    /// straight-line execution pays one wrapping compare per charge.
    last_lo: u32,
    last_len: u32,
    /// Whether any charge has happened yet (first never "switches").
    primed: bool,
    /// Number of context switches observed (owning domain changed
    /// between consecutive charges). Kept here so the hot switch path
    /// does not pay a by-name registry update; the machine mirrors it
    /// into the metrics registry at snapshot time.
    switches: u64,
}

/// Name of the catch-all domain for IPs outside every registered range.
pub const OTHER_DOMAIN: &str = "other";

/// Name of the pseudo-domain for exception-engine cycles.
pub const ENGINE_DOMAIN: &str = "exception_engine";

impl Attribution {
    /// Registers a domain covering `ranges`; later registrations with the
    /// same name extend the existing domain.
    pub fn register(&mut self, name: &str, ranges: &[(u32, u32)]) {
        if let Some(d) = self.domains.iter_mut().find(|d| d.name == name) {
            d.ranges.extend_from_slice(ranges);
        } else {
            self.domains.push(Domain {
                name: name.to_string(),
                ranges: ranges.to_vec(),
            });
            self.counts.push(0);
        }
        self.last = None;
        self.primed = false;
    }

    /// Removes all domains and counts.
    pub fn clear(&mut self) {
        self.domains.clear();
        self.counts.clear();
        self.other = 0;
        self.specials.clear();
        self.last = None;
        self.primed = false;
        self.switches = 0;
    }

    /// Zeroes the counts but keeps the registered domains.
    pub fn clear_counts(&mut self) {
        for c in &mut self.counts {
            *c = 0;
        }
        self.other = 0;
        self.specials.clear();
        self.last = None;
        self.primed = false;
        self.switches = 0;
    }

    /// Context switches observed since the counts were last cleared.
    pub fn switch_count(&self) -> u64 {
        self.switches
    }

    /// True if any domain is registered.
    pub fn has_domains(&self) -> bool {
        !self.domains.is_empty()
    }

    /// True once any charge has been recorded.
    pub fn is_primed(&self) -> bool {
        self.primed
    }

    /// Name of the domain the most recent charge landed in.
    pub fn current_domain(&self) -> &str {
        self.name_of(self.last)
    }

    /// Finds the owning domain and the specific range that matched.
    fn lookup(&self, ip: u32) -> Option<(usize, u32, u32)> {
        self.domains.iter().enumerate().find_map(|(i, d)| {
            d.ranges
                .iter()
                .find(|&&(s, e)| ip >= s && ip < e)
                .map(|&(s, e)| (i, s, e))
        })
    }

    /// Name of the domain at `idx`, with `None` meaning the catch-all
    /// [`OTHER_DOMAIN`] (the index form returned by
    /// [`Attribution::charge`]).
    pub fn name_of(&self, idx: Option<usize>) -> &str {
        match idx {
            Some(i) => &self.domains[i].name,
            None => OTHER_DOMAIN,
        }
    }

    /// Charges `cost` cycles to the domain owning `ip`. Returns
    /// `Some((from, to))` domain indices (resolvable through
    /// [`Attribution::name_of`]) when the owning domain differs from the
    /// previous charge's domain (a context switch). Indices instead of
    /// names keep the switch path allocation-free — sinks that want
    /// strings resolve them only when they actually record the event.
    #[inline]
    #[allow(clippy::type_complexity)]
    pub fn charge(&mut self, ip: u32, cost: u64) -> Option<(Option<usize>, Option<usize>)> {
        // Fast path: still inside the range the previous charge matched.
        if self.primed {
            if let Some(i) = self.last {
                if ip.wrapping_sub(self.last_lo) < self.last_len {
                    self.counts[i] += cost;
                    return None;
                }
            } else if self.lookup(ip).is_none() {
                self.other += cost;
                return None;
            }
        }
        let hit = self.lookup(ip);
        let idx = match hit {
            Some((i, s, e)) => {
                self.counts[i] += cost;
                self.last_lo = s;
                self.last_len = e - s;
                Some(i)
            }
            None => {
                self.other += cost;
                None
            }
        };
        let switched = self.primed && idx != self.last;
        let result = if switched {
            self.switches += 1;
            Some((self.last, idx))
        } else {
            None
        };
        self.last = idx;
        self.primed = true;
        result
    }

    /// True when every charge to an IP in `[lo, lo + len)` would take
    /// [`Attribution::charge`]'s fast path into the domain of the
    /// previous charge: the engine is primed, and the window lies inside
    /// the range that charge matched — or, when it landed in the
    /// catch-all, outside every registered range. Such charges can never
    /// switch, so a caller may sum them and settle the total once with
    /// [`Attribution::charge_current`]. Conservative: a window spanning
    /// two ranges of one domain is not covered.
    pub fn covers(&self, lo: u32, len: u32) -> bool {
        if !self.primed {
            return false;
        }
        let (lo, hi) = (u64::from(lo), u64::from(lo) + u64::from(len));
        match self.last {
            Some(_) => {
                let s = u64::from(self.last_lo);
                lo >= s && hi <= s + u64::from(self.last_len)
            }
            None => self
                .domains
                .iter()
                .flat_map(|d| &d.ranges)
                .all(|&(s, e)| hi <= u64::from(s) || lo >= u64::from(e)),
        }
    }

    /// Adds `cost` cycles to the domain of the previous charge — what
    /// [`Attribution::charge`] does for any IP inside a window that
    /// [`Attribution::covers`] vouched for.
    #[inline]
    pub fn charge_current(&mut self, cost: u64) {
        match self.last {
            Some(i) => self.counts[i] += cost,
            None => self.other += cost,
        }
    }

    /// Charges `cost` cycles to a named pseudo-domain (e.g. the
    /// exception engine).
    pub fn charge_special(&mut self, name: &str, cost: u64) {
        *self.specials.entry(name.to_string()).or_insert(0) += cost;
    }

    /// Total attributed cycles across all domains.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.other + self.specials.values().sum::<u64>()
    }

    /// The per-domain breakdown: every registered domain (even at zero),
    /// then `other` and the pseudo-domains when non-zero.
    pub fn report(&self) -> DomainReport {
        let mut out: DomainReport = self
            .domains
            .iter()
            .zip(&self.counts)
            .map(|(d, &c)| (d.name.clone(), c))
            .collect();
        if self.other > 0 {
            out.push((OTHER_DOMAIN.to_string(), self.other));
        }
        for (name, &c) in &self.specials {
            if c > 0 {
                out.push((name.clone(), c));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> Attribution {
        let mut a = Attribution::default();
        a.register("os", &[(0x1000, 0x2000)]);
        a.register("t0", &[(0x4000, 0x5000)]);
        a
    }

    #[test]
    fn charges_land_in_owning_domain() {
        let mut a = setup();
        a.charge(0x1100, 10);
        a.charge(0x4100, 5);
        a.charge(0x9999, 2);
        assert_eq!(
            a.report(),
            vec![
                ("os".to_string(), 10),
                ("t0".to_string(), 5),
                ("other".to_string(), 2)
            ]
        );
        assert_eq!(a.total(), 17);
    }

    #[test]
    fn context_switch_reported_on_domain_change() {
        let mut a = setup();
        assert_eq!(a.charge(0x1100, 1), None, "first charge never switches");
        assert_eq!(a.charge(0x1104, 1), None, "same domain");
        let sw = a.charge(0x4100, 1).expect("os -> t0 switches");
        assert_eq!((a.name_of(sw.0), a.name_of(sw.1)), ("os", "t0"));
        let sw = a.charge(0x9000, 1).expect("t0 -> other switches");
        assert_eq!((a.name_of(sw.0), a.name_of(sw.1)), ("t0", "other"));
        assert_eq!(a.charge(0x9004, 1), None, "other -> other");
    }

    #[test]
    fn specials_and_totals() {
        let mut a = setup();
        a.charge(0x1100, 10);
        a.charge_special(ENGINE_DOMAIN, 21);
        assert_eq!(a.total(), 31);
        assert!(a.report().contains(&(ENGINE_DOMAIN.to_string(), 21)));
    }

    #[test]
    fn multi_range_domains() {
        let mut a = Attribution::default();
        a.register("loader", &[(0x0, 0x100)]);
        a.register("loader", &[(0x800, 0x900)]);
        a.charge(0x50, 1);
        a.charge(0x850, 2);
        assert_eq!(a.report(), vec![("loader".to_string(), 3)]);
    }

    #[test]
    fn covers_is_exact_at_range_ends() {
        let mut a = setup();
        a.charge(0x1100, 1);
        assert!(a.covers(0x1000, 0x1000), "the whole matched range");
        assert!(a.covers(0x1ffc, 4), "last word of the range");
        assert!(!a.covers(0x1ffc, 8), "one word past the end");
        assert!(!a.covers(0xffc, 8), "one word before the start");
        assert!(!a.covers(0x4000, 4), "another domain");
    }

    #[test]
    fn covers_a_multi_range_domain_one_range_at_a_time() {
        let mut a = Attribution::default();
        a.register("loader", &[(0x0, 0x100), (0x100, 0x200)]);
        a.charge(0x80, 1);
        assert!(a.covers(0x0, 0x100));
        assert!(
            !a.covers(0xf0, 0x20),
            "straddling two ranges of one domain is conservatively uncovered"
        );
        a.charge(0x180, 1);
        assert!(a.covers(0x100, 0x100), "the range the last charge matched");
        assert!(!a.covers(0x0, 0x100));
    }

    #[test]
    fn covers_the_catch_all_only_clear_of_every_range() {
        let mut a = setup();
        a.charge(0x9000, 1);
        assert_eq!(a.current_domain(), OTHER_DOMAIN);
        assert!(a.covers(0x2000, 0x2000), "the gap between os and t0");
        assert!(!a.covers(0x1ffc, 8), "touches the end of os");
        assert!(!a.covers(0x3ffc, 8), "touches the start of t0");
        a.charge_current(5);
        assert_eq!(a.report().last(), Some(&("other".to_string(), 6)));
    }

    #[test]
    fn unprimed_engine_covers_nothing() {
        let mut a = setup();
        assert!(!a.covers(0x1100, 4), "the first charge must run in full");
        assert!(!a.covers(0x9000, 4), "not even the catch-all");
        a.charge(0x1100, 1);
        a.clear_counts();
        assert!(!a.covers(0x1100, 4), "clearing unprimes");
    }

    #[test]
    fn charge_current_matches_per_op_charges() {
        let mut per_op = setup();
        let mut batched = setup();
        per_op.charge(0x4000, 3);
        batched.charge(0x4000, 3);
        assert!(batched.covers(0x4000, 0x20));
        for ip in (0x4004..0x4020).step_by(4) {
            assert_eq!(per_op.charge(ip, 2), None);
        }
        batched.charge_current(2 * 7);
        assert_eq!(batched.report(), per_op.report());
        assert_eq!(batched.switch_count(), per_op.switch_count());
    }

    #[test]
    fn clear_counts_keeps_domains() {
        let mut a = setup();
        a.charge(0x1100, 10);
        a.clear_counts();
        assert!(a.has_domains());
        assert_eq!(a.total(), 0);
        assert_eq!(
            a.report(),
            vec![("os".to_string(), 0), ("t0".to_string(), 0)]
        );
    }
}
