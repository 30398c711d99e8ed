use crate::{
    audit_enabled, Cache, Cycle, DataClass, Dram, LevelKind, Line, MemConfig, MemStats,
    ReadTracker, Stlb, TraceEvent,
};

/// Which path an access takes through the memory system.
///
/// SPADE's bypass buffers (BBFs) let PE accesses skip the cache hierarchy
/// entirely (§5.2): sparse input data always bypasses, SDDMM output
/// bypasses, and the rMatrix may bypass — optionally staging its working
/// set in the BBF's small victim cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPath {
    /// Through L1 → L2 → LLC → DRAM.
    Cached,
    /// Through the BBF straight to DRAM (no caching at any level).
    Bypass,
    /// Through the BBF, staging lines in its victim cache (the third
    /// rMatrix case of §5.2).
    BypassVictim,
}

/// The modeled memory hierarchy: per-agent L1 (and optional BBF victim
/// cache), shared L2 per cluster, banked LLC, DRAM, and per-cluster STLBs.
///
/// Every access returns its completion cycle. Caches are tag-only; victims
/// propagate down the hierarchy as write-backs that consume bandwidth but
/// stay off the requester's critical path.
///
/// Every request takes one route: the fault plan's STLB shoot-down roll,
/// the STLB translation, then the levels its [`AccessPath`] names. There
/// is no request filter in front of the caches: the PEs' VR tag CAM
/// already answers a repeat of a line held in a vector register, so such
/// repeats never reach this hierarchy (see `DESIGN.md` §3).
///
/// # Example
///
/// ```
/// use spade_sim::{AccessPath, DataClass, MemConfig, MemorySystem};
///
/// let mut mem = MemorySystem::new(MemConfig::small_test(4));
/// let done = mem.read(1, 100, AccessPath::Bypass, DataClass::SparseIn, 0);
/// assert!(done > 0); // a bypass read always goes to DRAM
/// assert_eq!(mem.stats().dram_accesses(), 1);
/// ```
#[derive(Debug)]
pub struct MemorySystem {
    config: MemConfig,
    l1s: Vec<Cache>,
    victims: Vec<Option<Cache>>,
    l2s: Vec<Cache>,
    llc: Cache,
    llc_bank_free: Vec<Cycle>,
    dram: Dram,
    stlbs: Vec<Stlb>,
    stats: MemStats,
    /// In-flight read accounting for the invariant auditor. `None` when
    /// auditing is off; bookkeeping only — never read by the timing model.
    tracker: Option<ReadTracker>,
    /// Fault-firing trace events, buffered when tracing is enabled.
    /// Observation only — never read by the timing model.
    trace: Option<Vec<TraceEvent>>,
    /// Reusable dirty-line buffer for [`MemorySystem::flush_agent`], so
    /// flush-heavy plans allocate nothing in steady state.
    flush_scratch: Vec<Line>,
}

impl MemorySystem {
    /// Builds an empty hierarchy from `config`.
    pub fn new(config: MemConfig) -> Self {
        let l1s = (0..config.num_agents)
            .map(|_| Cache::new(config.l1))
            .collect();
        let victims = (0..config.num_agents)
            .map(|_| config.victim.map(Cache::new))
            .collect();
        let l2s = (0..config.num_clusters())
            .map(|_| Cache::new(config.l2))
            .collect();
        let stlbs = (0..config.num_clusters())
            .map(|_| Stlb::new(config.stlb))
            .collect();
        MemorySystem {
            llc: Cache::new(config.llc),
            llc_bank_free: vec![0; config.llc_banks.max(1)],
            dram: Dram::new(config.dram),
            l1s,
            victims,
            l2s,
            stlbs,
            stats: MemStats::new(),
            tracker: audit_enabled().then(ReadTracker::new),
            trace: None,
            flush_scratch: Vec::new(),
            config,
        }
    }

    /// Enables or disables event tracing. Enabling (re)starts an empty
    /// buffer; disabling drops any buffered events. Tracing never affects
    /// timing or statistics.
    pub fn set_trace(&mut self, enabled: bool) {
        self.trace = enabled.then(Vec::new);
    }

    /// Takes the buffered trace events, leaving tracing enabled with an
    /// empty buffer if it was on. Events carry the issuing agent as their
    /// lane id.
    pub fn take_trace_events(&mut self) -> Vec<TraceEvent> {
        match self.trace.as_mut() {
            Some(buf) => std::mem::take(buf),
            None => Vec::new(),
        }
    }

    /// The configuration this hierarchy was built from.
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// The DRAM model (achieved bandwidth, access counts).
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    fn cluster_of(&self, agent: usize) -> usize {
        agent / self.config.agents_per_cluster
    }

    /// Occupies an LLC bank and returns the service start cycle.
    #[inline]
    fn llc_bank(&mut self, line: Line, now: Cycle) -> Cycle {
        let b = (line % self.llc_bank_free.len() as u64) as usize;
        let start = self.llc_bank_free[b].max(now);
        self.llc_bank_free[b] = start + 1;
        start
    }

    /// Reads `line` for `agent` along `path`; returns the completion cycle.
    pub fn read(
        &mut self,
        agent: usize,
        line: Line,
        path: AccessPath,
        class: DataClass,
        now: Cycle,
    ) -> Cycle {
        let done = self.access(agent, line, path, class, now, false);
        if let Some(t) = self.tracker.as_mut() {
            t.record(now, done);
        }
        done
    }

    /// Writes `line` for `agent` along `path`; returns the cycle at which
    /// the write is accepted (writes are posted — the requester does not
    /// wait for DRAM).
    pub fn write(
        &mut self,
        agent: usize,
        line: Line,
        path: AccessPath,
        class: DataClass,
        now: Cycle,
    ) -> Cycle {
        self.access(agent, line, path, class, now, true)
    }

    fn access(
        &mut self,
        agent: usize,
        line: Line,
        path: AccessPath,
        class: DataClass,
        now: Cycle,
        is_write: bool,
    ) -> Cycle {
        assert!(agent < self.config.num_agents, "agent {agent} out of range");
        self.stats.requests_issued += 1;
        let cluster = self.cluster_of(agent);
        if self.config.faults.evicts_stlb(line, now) && self.stlbs[cluster].evict_line(line) {
            self.stats.faults_injected += 1;
            if let Some(buf) = self.trace.as_mut() {
                buf.push(
                    TraceEvent::instant("fault: stlb evict", "fault", now, agent as u64)
                        .arg("line", line),
                );
            }
        }
        let tlb_penalty = self.stlbs[cluster].translate(line);
        if tlb_penalty > 0 {
            self.stats.tlb_misses += 1;
        }
        self.dispatch(
            agent,
            cluster,
            line,
            path,
            class,
            now + tlb_penalty,
            is_write,
        )
    }

    /// Routes a translated access down its path.
    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &mut self,
        agent: usize,
        cluster: usize,
        line: Line,
        path: AccessPath,
        class: DataClass,
        now: Cycle,
        is_write: bool,
    ) -> Cycle {
        match path {
            AccessPath::Cached => self.cached_access(agent, cluster, line, class, now, is_write),
            AccessPath::Bypass => {
                self.stats.record_access(LevelKind::Bbf, false);
                if is_write {
                    // Posted write: the BBF accepts it immediately and
                    // drains it to DRAM in the background.
                    self.dram_write(line, class, now);
                    now + 1
                } else {
                    self.dram_read(agent, line, class, now)
                }
            }
            AccessPath::BypassVictim => self.victim_access(agent, line, class, now, is_write),
        }
    }

    fn cached_access(
        &mut self,
        agent: usize,
        cluster: usize,
        line: Line,
        class: DataClass,
        now: Cycle,
        is_write: bool,
    ) -> Cycle {
        let port_extra = self.config.faults.port_extra(agent, line, now);
        if port_extra > 0 {
            self.stats.faults_injected += 1;
            if let Some(buf) = self.trace.as_mut() {
                buf.push(
                    TraceEvent::instant("fault: port delay", "fault", now, agent as u64)
                        .arg("extra_cycles", port_extra),
                );
            }
        }
        let now = now + port_extra;
        let (l1_lat, l2_lat, llc_lat, link) = (
            self.config.l1_latency,
            self.config.l2_latency,
            self.config.llc_latency,
            self.config.link_latency,
        );
        let l1_done = now + l1_lat;
        let outcome = self.l1s[agent].access(line, is_write);
        self.stats.record_access(LevelKind::L1, outcome.is_hit());
        if let crate::AccessOutcome::Miss { victim: Some(v) } = outcome {
            if v.dirty {
                self.stats.record_writeback(LevelKind::L1);
                self.fill_l2(cluster, v.line, class, now, true);
            }
        }
        if outcome.is_hit() {
            return l1_done;
        }

        // L2 lookup.
        let l2_done = l1_done + l2_lat;
        let l2_out = self.l2s[cluster].access(line, false);
        self.stats.record_access(LevelKind::L2, l2_out.is_hit());
        if let crate::AccessOutcome::Miss { victim: Some(v) } = l2_out {
            if v.dirty {
                self.stats.record_writeback(LevelKind::L2);
                self.fill_llc(v.line, class, now, true);
            }
        }
        if l2_out.is_hit() {
            return l2_done;
        }

        // LLC lookup (half the link round-trip gets us to the slice).
        let bank_start = self.llc_bank(line, l2_done + link / 2);
        let llc_done = bank_start + llc_lat;
        let llc_out = self.llc.access(line, false);
        self.stats.record_access(LevelKind::Llc, llc_out.is_hit());
        if let crate::AccessOutcome::Miss { victim: Some(v) } = llc_out {
            if v.dirty {
                self.stats.record_writeback(LevelKind::Llc);
                self.dram_write(v.line, class, now);
            }
        }
        if llc_out.is_hit() {
            return llc_done;
        }

        // DRAM (the remaining half of the link round trip).
        self.dram_read(agent, line, class, llc_done + link / 2)
    }

    /// Fills `line` into an L2 as a write-back from an L1 (off the critical
    /// path).
    fn fill_l2(&mut self, cluster: usize, line: Line, class: DataClass, now: Cycle, dirty: bool) {
        let out = self.l2s[cluster].access(line, dirty);
        self.stats.record_access(LevelKind::L2, out.is_hit());
        if let crate::AccessOutcome::Miss { victim: Some(v) } = out {
            if v.dirty {
                self.stats.record_writeback(LevelKind::L2);
                self.fill_llc(v.line, class, now, true);
            }
        }
    }

    /// Fills `line` into the LLC as a write-back from an L2.
    fn fill_llc(&mut self, line: Line, class: DataClass, now: Cycle, dirty: bool) {
        let out = self.llc.access(line, dirty);
        self.stats.record_access(LevelKind::Llc, out.is_hit());
        if let crate::AccessOutcome::Miss { victim: Some(v) } = out {
            if v.dirty {
                self.stats.record_writeback(LevelKind::Llc);
                self.dram_write(v.line, class, now);
            }
        }
    }

    fn victim_access(
        &mut self,
        agent: usize,
        line: Line,
        class: DataClass,
        now: Cycle,
        is_write: bool,
    ) -> Cycle {
        let out = match self.victims[agent].as_mut() {
            Some(vc) => vc.access(line, is_write),
            None => {
                // No BBF configured (CPU agent): degrade to a plain bypass.
                return if is_write {
                    self.dram_write(line, class, now);
                    now + 1
                } else {
                    self.dram_read(agent, line, class, now)
                };
            }
        };
        self.stats.record_access(LevelKind::Bbf, out.is_hit());
        if let crate::AccessOutcome::Miss { victim: Some(v) } = out {
            if v.dirty {
                self.stats.record_writeback(LevelKind::Bbf);
                self.dram_write(v.line, class, now);
            }
        }
        if out.is_hit() {
            return now + self.config.l1_latency;
        }
        if is_write {
            // Write-allocate in the VC; the line is dirty there, nothing
            // else to do now.
            now + self.config.l1_latency
        } else {
            self.dram_read(agent, line, class, now)
        }
    }

    fn dram_read(&mut self, agent: usize, line: Line, class: DataClass, now: Cycle) -> Cycle {
        self.stats.record_access(LevelKind::Dram, true);
        self.stats.record_dram(class);
        let done = self.dram.access(line, now + self.config.link_latency / 2);
        let extra = self.config.faults.dram_extra(line, now);
        if extra > 0 {
            self.stats.faults_injected += 1;
            if let Some(buf) = self.trace.as_mut() {
                buf.push(
                    TraceEvent::instant("fault: dram delay", "fault", now, agent as u64)
                        .arg("extra_cycles", extra),
                );
            }
        }
        done + extra + self.config.link_latency / 2
    }

    fn dram_write(&mut self, line: Line, class: DataClass, now: Cycle) {
        self.stats.record_access(LevelKind::Dram, true);
        self.stats.record_dram(class);
        let _ = self.dram.write(line, now + self.config.link_latency / 2);
    }

    /// Writes back and invalidates one agent's L1 and BBF victim cache,
    /// returning the number of dirty lines flushed (the SPADE→CPU mode
    /// transition of §4.1). The write-backs consume DRAM bandwidth.
    pub fn flush_agent(&mut self, agent: usize, now: Cycle) -> usize {
        let cluster = self.cluster_of(agent);
        let mut flushed = 0;
        // Reuse one buffer across all flushes; the borrow checker needs it
        // detached from `self` while the write-backs propagate.
        let mut scratch = std::mem::take(&mut self.flush_scratch);
        scratch.clear();
        self.l1s[agent].writeback_invalidate_all_into(&mut scratch);
        for &line in &scratch {
            self.stats.record_writeback(LevelKind::L1);
            self.fill_l2(cluster, line, DataClass::RMatrix, now, true);
            flushed += 1;
        }
        scratch.clear();
        if let Some(vc) = self.victims[agent].as_mut() {
            vc.writeback_invalidate_all_into(&mut scratch);
        }
        for &line in &scratch {
            self.stats.record_writeback(LevelKind::Bbf);
            self.dram_write(line, DataClass::RMatrix, now);
            flushed += 1;
        }
        scratch.clear();
        self.flush_scratch = scratch;
        flushed
    }

    /// Flushes every agent (end of a SPADE-mode section). Returns total
    /// dirty lines flushed.
    pub fn flush_all(&mut self, now: Cycle) -> usize {
        (0..self.config.num_agents)
            .map(|a| self.flush_agent(a, now))
            .sum()
    }

    /// Resets statistics and all timing queues while keeping cache
    /// contents, so a subsequent run starts at cycle 0 with warm caches
    /// (used to measure the start-up overhead of §7.D).
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::new();
        self.dram.reset();
        self.llc_bank_free.fill(0);
        if let Some(t) = self.tracker.as_mut() {
            t.reset();
        }
    }

    /// Whether the invariant auditor is tracking this hierarchy (debug
    /// builds, or `SPADE_AUDIT` set in release builds).
    pub fn audit_active(&self) -> bool {
        self.tracker.is_some()
    }

    /// Reads still in flight at `now`, when the auditor is active.
    pub fn outstanding_reads(&mut self, now: Cycle) -> Option<usize> {
        self.tracker.as_mut().map(|t| {
            t.retire(now);
            t.outstanding()
        })
    }

    /// Runs the hierarchy-level invariant checks at `now`:
    ///
    /// * every cache's occupancy stays within its configured geometry,
    /// * per-level hit counters never exceed access counters,
    /// * outstanding reads stay at or below `max_outstanding` when a bound
    ///   is given (the MSHR-leak check — the bound is the requesters'
    ///   aggregate queue capacity, which the host system knows).
    ///
    /// A no-op returning `Ok(())` when the auditor is inactive.
    pub fn audit(&mut self, now: Cycle, max_outstanding: Option<usize>) -> Result<(), String> {
        if self.tracker.is_none() {
            return Ok(());
        }
        for (name, cache) in self
            .l1s
            .iter()
            .map(|c| ("L1", c))
            .chain(self.victims.iter().flatten().map(|c| ("BBF", c)))
            .chain(self.l2s.iter().map(|c| ("L2", c)))
            .chain(std::iter::once(("LLC", &self.llc)))
        {
            let (occ, cap) = (cache.occupancy(), cache.config().num_lines());
            if occ > cap {
                return Err(format!("{name} occupancy {occ} exceeds capacity {cap}"));
            }
        }
        for level in LevelKind::ALL {
            let s = self.stats.level(level);
            if s.hits > s.accesses {
                return Err(format!(
                    "{level:?} hits {} > accesses {}",
                    s.hits, s.accesses
                ));
            }
        }
        let outstanding = self.outstanding_reads(now).unwrap_or(0);
        if let Some(bound) = max_outstanding {
            if outstanding > bound {
                return Err(format!(
                    "in-flight read leak: {outstanding} outstanding at cycle {now}, bound {bound}"
                ));
            }
        }
        Ok(())
    }

    /// End-of-run audit: the periodic checks plus the requirement that all
    /// in-flight reads have drained (`now` is the final cycle).
    pub fn audit_final(&mut self, now: Cycle) -> Result<(), String> {
        self.audit(now, None)?;
        match self.outstanding_reads(now) {
            Some(n) if n > 0 => Err(format!(
                "in-flight read leak: {n} reads still outstanding at final cycle {now}"
            )),
            _ => Ok(()),
        }
    }

    /// Direct access to an agent's L1 occupancy (for tests/diagnostics).
    pub fn l1_occupancy(&self, agent: usize) -> usize {
        self.l1s[agent].occupancy()
    }

    /// Direct access to the LLC occupancy (for tests/diagnostics).
    pub fn llc_occupancy(&self) -> usize {
        self.llc.occupancy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MemorySystem {
        MemorySystem::new(MemConfig::small_test(4))
    }

    #[test]
    fn cold_read_reaches_dram() {
        let mut m = mem();
        let done = m.read(0, 10, AccessPath::Cached, DataClass::CMatrix, 0);
        assert_eq!(m.stats().dram_accesses(), 1);
        assert!(done > m.config().dram.latency_cycles);
    }

    #[test]
    fn second_read_hits_l1() {
        let mut m = mem();
        let t1 = m.read(0, 10, AccessPath::Cached, DataClass::CMatrix, 0);
        let t2 = m.read(0, 10, AccessPath::Cached, DataClass::CMatrix, t1);
        assert_eq!(t2 - t1, m.config().l1_latency);
        assert_eq!(m.stats().dram_accesses(), 1);
    }

    #[test]
    fn sibling_agent_hits_shared_l2() {
        let mut m = mem();
        // Agents 0 and 1 share a cluster (agents_per_cluster = 2).
        let t1 = m.read(0, 10, AccessPath::Cached, DataClass::CMatrix, 0);
        let t2 = m.read(1, 10, AccessPath::Cached, DataClass::CMatrix, t1);
        let cfg = m.config();
        assert_eq!(t2 - t1, cfg.l1_latency + cfg.l2_latency);
    }

    #[test]
    fn cross_cluster_agent_hits_llc() {
        let mut m = mem();
        let t1 = m.read(0, 10, AccessPath::Cached, DataClass::CMatrix, 0);
        let t2 = m.read(2, 10, AccessPath::Cached, DataClass::CMatrix, t1);
        // L1 + L2 misses, LLC hit: more than an L2 hit, less than DRAM.
        let cfg = m.config();
        assert!(t2 - t1 > cfg.l1_latency + cfg.l2_latency);
        assert_eq!(m.stats().dram_accesses(), 1);
    }

    #[test]
    fn bypass_read_never_fills_caches() {
        let mut m = mem();
        m.read(0, 10, AccessPath::Bypass, DataClass::SparseIn, 0);
        m.read(0, 10, AccessPath::Bypass, DataClass::SparseIn, 0);
        assert_eq!(m.stats().dram_accesses(), 2);
        assert_eq!(m.l1_occupancy(0), 0);
        assert_eq!(m.llc_occupancy(), 0);
    }

    #[test]
    fn bypass_write_is_posted() {
        let mut m = mem();
        // Warm the TLB so the posted write pays no walk penalty.
        m.read(0, 10, AccessPath::Bypass, DataClass::SparseIn, 0);
        let t = m.write(0, 10, AccessPath::Bypass, DataClass::SparseOut, 5);
        assert_eq!(t, 6);
        assert_eq!(m.stats().dram_accesses(), 2);
    }

    #[test]
    fn victim_cache_stages_bypassed_lines() {
        let mut m = mem();
        let t1 = m.read(0, 10, AccessPath::BypassVictim, DataClass::RMatrix, 0);
        let t2 = m.read(0, 10, AccessPath::BypassVictim, DataClass::RMatrix, t1);
        assert_eq!(t2 - t1, m.config().l1_latency); // VC hit
        assert_eq!(m.stats().dram_accesses(), 1);
        assert_eq!(m.l1_occupancy(0), 0); // L1 untouched
    }

    #[test]
    fn victim_cache_overflow_spills_dirty_lines_to_dram() {
        let mut m = mem();
        // VC is 256 B = 4 lines; write 8 distinct lines.
        for i in 0..8 {
            m.write(0, i, AccessPath::BypassVictim, DataClass::RMatrix, 0);
        }
        // 4 dirty victims must have spilled.
        assert_eq!(m.stats().level(LevelKind::Bbf).writebacks, 4);
        assert_eq!(m.stats().dram_accesses(), 4);
    }

    #[test]
    fn dirty_l1_victims_propagate_to_l2() {
        let mut m = mem();
        // L1 is 512 B = 8 lines, 2-way, 4 sets; lines k*4 collide in set 0.
        m.write(0, 0, AccessPath::Cached, DataClass::RMatrix, 0);
        m.write(0, 4, AccessPath::Cached, DataClass::RMatrix, 0);
        m.write(0, 8, AccessPath::Cached, DataClass::RMatrix, 0); // evicts line 0
        assert_eq!(m.stats().level(LevelKind::L1).writebacks, 1);
    }

    #[test]
    fn writes_after_flush_are_visible_in_dram_counts() {
        let mut m = mem();
        m.write(0, 1, AccessPath::Cached, DataClass::RMatrix, 0);
        let flushed = m.flush_agent(0, 100);
        assert_eq!(flushed, 1);
        assert_eq!(m.l1_occupancy(0), 0);
    }

    #[test]
    fn repeated_flushes_of_clean_caches_change_nothing() {
        let mut m = mem();
        m.write(0, 1, AccessPath::Cached, DataClass::RMatrix, 0);
        m.write(1, 2, AccessPath::BypassVictim, DataClass::RMatrix, 0);
        assert_eq!(m.flush_agent(0, 10) + m.flush_agent(1, 10), 2);
        let baseline = m.stats().clone();
        // Flush-heavy plan with nothing dirty: every subsequent flush must
        // take the fast path and leave the statistics bit-identical.
        for round in 0..64 {
            assert_eq!(m.flush_all(20 + round), 0);
        }
        assert_eq!(*m.stats(), baseline);
        assert_eq!(m.l1_occupancy(0), 0);
    }

    #[test]
    fn flush_all_covers_every_agent() {
        let mut m = mem();
        m.write(0, 1, AccessPath::Cached, DataClass::RMatrix, 0);
        m.write(3, 2, AccessPath::Cached, DataClass::RMatrix, 0);
        m.write(2, 3, AccessPath::BypassVictim, DataClass::RMatrix, 0);
        assert_eq!(m.flush_all(50), 3);
    }

    #[test]
    fn tlb_miss_penalty_is_applied_once_per_page() {
        let mut m = mem();
        let t1 = m.read(0, 0, AccessPath::Cached, DataClass::CMatrix, 0);
        // Line 1 is in the same 4 KiB page: no walk, and it is an L1 miss
        // with the same path length, so it must complete sooner relative to
        // its issue time minus DRAM queueing.
        let t2 = m.read(0, 1, AccessPath::Cached, DataClass::CMatrix, t1) - t1;
        assert!(t2 < t1);
        assert_eq!(m.stats().tlb_misses, 1);
    }

    #[test]
    fn requests_issued_counts_every_access() {
        let mut m = mem();
        m.read(0, 0, AccessPath::Cached, DataClass::CMatrix, 0);
        m.write(0, 1, AccessPath::Bypass, DataClass::SparseOut, 0);
        assert_eq!(m.stats().requests_issued, 2);
    }

    #[test]
    fn link_latency_increases_dram_time() {
        let mut fast = MemorySystem::new(MemConfig::small_test(2));
        let mut slow_cfg = MemConfig::small_test(2);
        slow_cfg.link_latency = 768; // 960 ns
        let mut slow = MemorySystem::new(slow_cfg);
        let tf = fast.read(0, 0, AccessPath::Bypass, DataClass::SparseIn, 0);
        let ts = slow.read(0, 0, AccessPath::Bypass, DataClass::SparseIn, 0);
        assert!(ts > tf + 600);
    }

    #[test]
    fn zero_probability_plan_is_a_no_op() {
        use crate::FaultConfig;
        let mut clean = mem();
        let mut cfg = MemConfig::small_test(4);
        cfg.faults = FaultConfig {
            seed: 99,
            ..FaultConfig::none()
        };
        let mut armed = MemorySystem::new(cfg);
        for i in 0..64u64 {
            let agent = (i % 4) as usize;
            let a = clean.read(agent, i * 3, AccessPath::Cached, DataClass::CMatrix, i);
            let b = armed.read(agent, i * 3, AccessPath::Cached, DataClass::CMatrix, i);
            assert_eq!(a, b);
        }
        assert_eq!(clean.stats(), armed.stats());
        assert_eq!(armed.stats().faults_injected, 0);
    }

    #[test]
    fn stress_plan_fires_and_only_delays() {
        use crate::FaultConfig;
        let mut clean = mem();
        let mut cfg = MemConfig::small_test(4);
        cfg.faults = FaultConfig::stress(7);
        let mut armed = MemorySystem::new(cfg);
        let mut clean_sum = 0;
        let mut armed_sum = 0;
        for i in 0..512u64 {
            let agent = (i % 4) as usize;
            clean_sum += clean.read(agent, i * 5, AccessPath::Cached, DataClass::CMatrix, i);
            armed_sum += armed.read(agent, i * 5, AccessPath::Cached, DataClass::CMatrix, i);
        }
        assert!(armed.stats().faults_injected > 0);
        // Faults add latency; they never accelerate anything.
        assert!(armed_sum > clean_sum);
        // The same traffic was served either way.
        assert_eq!(clean.stats().requests_issued, armed.stats().requests_issued);
    }

    #[test]
    fn audit_passes_on_a_healthy_hierarchy() {
        let mut m = mem();
        for i in 0..32u64 {
            m.read(
                (i % 4) as usize,
                i,
                AccessPath::Cached,
                DataClass::CMatrix,
                i,
            );
        }
        if m.audit_active() {
            assert_eq!(m.audit(u64::MAX / 2, Some(1000)), Ok(()));
            assert_eq!(m.audit_final(u64::MAX / 2), Ok(()));
        }
    }

    #[test]
    fn audit_flags_reads_exceeding_the_bound() {
        let mut m = mem();
        // A cold bypass read completes well after cycle 0.
        m.read(0, 0, AccessPath::Bypass, DataClass::SparseIn, 0);
        if m.audit_active() {
            assert!(m.audit(0, Some(0)).is_err());
            assert!(m.audit_final(0).is_err());
        }
    }

    #[test]
    fn agent_out_of_range_panics() {
        let mut m = mem();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.read(99, 0, AccessPath::Cached, DataClass::CMatrix, 0)
        }));
        assert!(r.is_err());
    }
}
