package automaton

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"

	"repro/internal/cows"
	"repro/internal/lts"
	"repro/internal/policy"
)

// TaskSpec names one task of the process with the pool role that
// performs it.
type TaskSpec struct {
	Name string
	Role string
}

// CompileInput is everything the compiler needs about a purpose. The
// caller (core.Checker, ltsdump) assembles it from the registered
// purpose plus its own flags, so the resulting automaton bakes in
// exactly the semantics the interpreter would apply.
type CompileInput struct {
	// Purpose is the purpose name (reporting and content addressing).
	Purpose string
	// Initial is the encoded COWS service of one fresh case.
	Initial cows.Service
	// Observable is the process's observable-label predicate; ignored
	// when System is supplied.
	Observable lts.Observability
	// Tasks lists every task with its pool role — the alphabet axis.
	Tasks []TaskSpec
	// Roles is the role hierarchy (nil = exact role matching).
	Roles *policy.RoleHierarchy

	// StrictFailureTask / DisableAbsorption mirror the checker flags.
	StrictFailureTask bool
	DisableAbsorption bool
	// MaxConfigurations caps every determinized set (0 = the
	// interpreter's default); a reachable overflow aborts the compile.
	MaxConfigurations int
	// MaxSilentDepth configures a freshly built System (ignored when
	// System is supplied; 0 = lts default).
	MaxSilentDepth int
	// MaxStates bounds subset construction (0 = DefaultMaxStates).
	MaxStates int

	// System, when non-nil, is the warm shared LTS to compile against
	// (its observability must be the purpose's own).
	System *lts.System
}

// Fingerprint computes the artifact content address without running
// subset construction: a hash of the canonical COWS term, the compiler
// version, and every semantic knob (flags, caps, task alphabet, role
// classes). Two inputs with equal fingerprints compile to semantically
// identical automata, so the fingerprint is both the cache key and the
// load-time compatibility check.
func Fingerprint(in CompileInput) string {
	maxConfigs := in.MaxConfigurations
	if maxConfigs <= 0 {
		maxConfigs = DefaultMaxConfigurations
	}
	h := sha256.New()
	write := func(parts ...string) {
		for _, p := range parts {
			io.WriteString(h, p)
			h.Write([]byte{0})
		}
	}
	write(CompilerVersion, in.Purpose, cows.Canon(in.Initial))
	write(fmt.Sprintf("strict=%v", in.StrictFailureTask),
		fmt.Sprintf("absorb=%v", !in.DisableAbsorption),
		fmt.Sprintf("maxconf=%d", maxConfigs))
	tasks := append([]TaskSpec(nil), in.Tasks...)
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].Name < tasks[j].Name })
	for _, t := range tasks {
		write("task", t.Name, t.Role)
	}
	// The hierarchy enters through the role classes it induces over the
	// pool roles, which is exactly how it affects replay semantics.
	pools, _ := poolRolesOf(tasks)
	for _, r := range rolesToClassify(in.Roles, pools) {
		write("role", r, fmt.Sprintf("%x", roleMask(in.Roles, r, pools)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// poolRolesOf returns the sorted distinct pool roles and an index map.
func poolRolesOf(tasks []TaskSpec) ([]string, map[string]int) {
	idx := map[string]int{}
	var pools []string
	for _, t := range tasks {
		if _, ok := idx[t.Role]; !ok {
			idx[t.Role] = 0
			pools = append(pools, t.Role)
		}
	}
	sort.Strings(pools)
	for i, r := range pools {
		idx[r] = i
	}
	return pools, idx
}

// rolesToClassify returns the sorted union of pool roles and hierarchy
// roles — every role whose class can differ from the zero class.
func rolesToClassify(h *policy.RoleHierarchy, pools []string) []string {
	seen := map[string]bool{}
	var out []string
	add := func(r string) {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	for _, r := range pools {
		add(r)
	}
	if h != nil {
		for _, r := range h.Roles() {
			add(r)
		}
	}
	sort.Strings(out)
	return out
}

// roleMask computes the role-class bitmask of one entry role: bit i is
// set iff the role may perform tasks of pool role pools[i] (equality or
// hierarchy specialization — Algorithm 1 line 5).
func roleMask(h *policy.RoleHierarchy, role string, pools []string) uint64 {
	var m uint64
	for i, pr := range pools {
		if role == pr || (h != nil && h.Specializes(role, pr)) {
			m |= 1 << i
		}
	}
	return m
}

// conf is one interned (state, active-set) configuration during
// compilation.
type conf struct {
	id       int32
	svc      cows.Service
	stateID  lts.StateID
	termRef  int32
	active   []ActiveTask // sorted by (Role, Task), deduplicated
	activeID int32

	succsDone bool
	succs     []csucc
}

// csucc is one precomputed observable successor.
type csucc struct {
	op      string
	partner string
	origins []string
	target  int32
}

type compiler struct {
	in         CompileInput
	sys        *lts.System
	maxConfigs int
	maxStates  int

	tasks    []string
	taskRole map[string]string
	hasTask  map[string]bool
	pools    []string
	poolIdx  map[string]int

	classes   []uint64
	roleClass map[string]int32
	zeroClass int32

	terms   []string
	texts   []string
	termRef map[lts.StateID]int32

	activeSets [][]ActiveTask
	activeIdx  map[string]int32

	confs   []*conf
	confIdx map[uint64]int32
}

// Compile runs subset construction over the purpose's configuration
// sets and returns the table-driven DFA. Failures to determinize — a
// non-finitely-observable process, an exploration budget, a
// configuration-set overflow, a state-count overflow — are returned
// wrapped in ErrNotCompilable; the caller falls back to the interpreter
// and records the cause.
func Compile(in CompileInput) (*DFA, error) {
	c := &compiler{in: in, maxConfigs: in.MaxConfigurations, maxStates: in.MaxStates}
	if c.maxConfigs <= 0 {
		c.maxConfigs = DefaultMaxConfigurations
	}
	if c.maxStates <= 0 {
		c.maxStates = DefaultMaxStates
	}
	c.sys = in.System
	if c.sys == nil {
		var opts []lts.Option
		if in.MaxSilentDepth > 0 {
			opts = append(opts, lts.WithMaxSilentDepth(in.MaxSilentDepth))
		}
		c.sys = lts.NewSystem(in.Observable, opts...)
	}
	if err := c.buildAlphabet(); err != nil {
		return nil, err
	}
	d, err := c.construct()
	if err != nil {
		return nil, err
	}
	d.Fingerprint = Fingerprint(in)
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return d, nil
}

func (c *compiler) buildAlphabet() error {
	tasks := append([]TaskSpec(nil), c.in.Tasks...)
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].Name < tasks[j].Name })
	c.taskRole = make(map[string]string, len(tasks))
	c.hasTask = make(map[string]bool, len(tasks))
	for _, t := range tasks {
		if c.hasTask[t.Name] {
			return fmt.Errorf("%w: duplicate task %q", ErrNotCompilable, t.Name)
		}
		c.tasks = append(c.tasks, t.Name)
		c.taskRole[t.Name] = t.Role
		c.hasTask[t.Name] = true
	}
	c.pools, c.poolIdx = poolRolesOf(tasks)
	if len(c.pools) > 64 {
		return fmt.Errorf("%w: %d pool roles exceed the 64-bit class mask", ErrNotCompilable, len(c.pools))
	}
	classOf := map[uint64]int32{}
	c.roleClass = map[string]int32{}
	addMask := func(m uint64) int32 {
		if id, ok := classOf[m]; ok {
			return id
		}
		id := int32(len(c.classes))
		c.classes = append(c.classes, m)
		classOf[m] = id
		return id
	}
	for _, r := range rolesToClassify(c.in.Roles, c.pools) {
		c.roleClass[r] = addMask(roleMask(c.in.Roles, r, c.pools))
	}
	c.zeroClass = addMask(0)
	return nil
}

func (c *compiler) internActive(active []ActiveTask) int32 {
	key := activeKey(active)
	if id, ok := c.activeIdx[key]; ok {
		return id
	}
	id := int32(len(c.activeSets))
	c.activeSets = append(c.activeSets, append([]ActiveTask(nil), active...))
	c.activeIdx[key] = id
	return id
}

func (c *compiler) internTerm(id lts.StateID, svc cows.Service) int32 {
	if ref, ok := c.termRef[id]; ok {
		return ref
	}
	ref := int32(len(c.terms))
	c.terms = append(c.terms, c.sys.CanonOf(svc))
	c.texts = append(c.texts, cows.String(svc))
	c.termRef[id] = ref
	return ref
}

// internConf interns a (state, active) pair; successors are derived
// lazily by ensureSuccs, so cyclic processes terminate.
func (c *compiler) internConf(svc cows.Service, stateID lts.StateID, active []ActiveTask, activeID int32) int32 {
	key := uint64(uint32(stateID))<<32 | uint64(uint32(activeID))
	if id, ok := c.confIdx[key]; ok {
		return id
	}
	cf := &conf{
		id:       int32(len(c.confs)),
		svc:      svc,
		stateID:  stateID,
		termRef:  c.internTerm(stateID, svc),
		active:   c.activeSets[activeID],
		activeID: activeID,
	}
	c.confs = append(c.confs, cf)
	c.confIdx[key] = cf.id
	return cf.id
}

// nextActive applies the origin discipline (DESIGN.md §4), mirroring
// core.nextActive: tasks whose token produced the label stop being
// active; a task label activates its task.
func (c *compiler) nextActive(active []ActiveTask, op, partner string, origins []string) []ActiveTask {
	out := make([]ActiveTask, 0, len(active)+1)
	for _, a := range active {
		consumed := false
		for _, o := range origins {
			if o == a.Task {
				consumed = true
				break
			}
		}
		if !consumed {
			out = append(out, a)
		}
	}
	if op != "Err" && c.hasTask[op] {
		na := ActiveTask{Role: partner, Task: op}
		pos := sort.Search(len(out), func(i int) bool {
			if out[i].Role != na.Role {
				return out[i].Role > na.Role
			}
			return out[i].Task >= na.Task
		})
		if pos == len(out) || out[pos] != na {
			out = append(out, ActiveTask{})
			copy(out[pos+1:], out[pos:])
			out[pos] = na
		}
	}
	return out
}

// ensureSuccs derives a configuration's observable successors once.
func (c *compiler) ensureSuccs(id int32) error {
	cf := c.confs[id]
	if cf.succsDone {
		return nil
	}
	obs, err := c.sys.WeakNext(cf.svc)
	if err != nil {
		return fmt.Errorf("%w: WeakNext: %v", ErrNotCompilable, err)
	}
	succs := make([]csucc, 0, len(obs))
	for _, o := range obs {
		if o.Label.Op != "Err" {
			if !c.hasTask[o.Label.Op] {
				// An observable label outside the task alphabet would
				// give the interpreter a move the table cannot express.
				return fmt.Errorf("%w: observable label %s is outside the task alphabet", ErrNotCompilable, o.Label)
			}
			if _, ok := c.poolIdx[o.Label.Partner]; !ok {
				return fmt.Errorf("%w: label partner %q is not a pool role", ErrNotCompilable, o.Label.Partner)
			}
		}
		na := c.nextActive(cf.active, o.Label.Op, o.Label.Partner, o.Label.Origins())
		target := c.internConf(o.State, o.ID, na, c.internActive(na))
		succs = append(succs, csucc{
			op:      o.Label.Op,
			partner: o.Label.Partner,
			origins: o.Label.Origins(),
			target:  target,
		})
	}
	// internConf may have grown c.confs; re-read the pointer.
	cf = c.confs[id]
	cf.succs = succs
	cf.succsDone = true
	return nil
}

func (c *compiler) construct() (*DFA, error) {
	c.terms = nil
	c.texts = nil
	c.termRef = map[lts.StateID]int32{}
	c.activeSets = nil
	c.activeIdx = map[string]int32{}
	c.confIdx = map[uint64]int32{}

	emptyActive := c.internActive(nil)
	initID := c.sys.Intern(c.in.Initial)
	start := c.internConf(c.sys.Representative(c.in.Initial), initID, nil, emptyActive)

	failSyms := 1
	if c.in.StrictFailureTask {
		failSyms = len(c.tasks)
	}
	numSymbols := len(c.tasks)*len(c.classes) + failSyms

	var (
		states   []State
		sets     [][]int32
		delta    []int32
		stateIdx = map[string]int32{}
		queue    []int32
	)
	addState := func(members []int32) (int32, error) {
		key := memberKey(members)
		if id, ok := stateIdx[key]; ok {
			return id, nil
		}
		if len(states) >= c.maxStates {
			return 0, fmt.Errorf("%w: subset construction exceeds %d states", ErrNotCompilable, c.maxStates)
		}
		id := int32(len(states))
		states = append(states, State{Members: members})
		sets = append(sets, members)
		stateIdx[key] = id
		queue = append(queue, id)
		return id, nil
	}
	if _, err := addState([]int32{start}); err != nil {
		return nil, err
	}

	seen := map[int32]bool{}
	advance := func(members []int32, accept func(*conf) (absorb bool, fire func(*csucc) bool)) ([]int32, error) {
		clear(seen)
		var next []int32
		add := func(id int32) error {
			if seen[id] {
				return nil
			}
			if len(next) >= c.maxConfigs {
				return fmt.Errorf("%w: configuration set exceeds %d", ErrNotCompilable, c.maxConfigs)
			}
			seen[id] = true
			next = append(next, id)
			return nil
		}
		for _, id := range members {
			cf := c.confs[id]
			absorb, fire := accept(cf)
			// Algorithm 1 line 8: an absorbed entry keeps the
			// configuration as-is and fires nothing from it.
			if absorb {
				if err := add(id); err != nil {
					return nil, err
				}
				continue
			}
			if err := c.ensureSuccs(id); err != nil {
				return nil, err
			}
			cf = c.confs[id]
			for i := range cf.succs {
				s := &cf.succs[i]
				if !fire(s) {
					continue
				}
				if err := add(s.target); err != nil {
					return nil, err
				}
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		return next, nil
	}

	for len(queue) > 0 {
		sid := queue[0]
		queue = queue[1:]
		members := sets[sid]
		row := make([]int32, numSymbols)
		for i := range row {
			row[i] = Reject
		}
		// Success symbols: task × role class.
		for ti, task := range c.tasks {
			for ci, mask := range c.classes {
				next, err := advance(members, func(cf *conf) (bool, func(*csucc) bool) {
					absorb := false
					if !c.in.DisableAbsorption {
						for _, a := range cf.active {
							if a.Task == task && mask&(1<<c.poolIdx[a.Role]) != 0 {
								absorb = true
								break
							}
						}
					}
					return absorb, func(s *csucc) bool {
						return s.op == task && mask&(1<<c.poolIdx[s.partner]) != 0
					}
				})
				if err != nil {
					return nil, err
				}
				if len(next) == 0 {
					continue
				}
				nid, err := addState(next)
				if err != nil {
					return nil, err
				}
				row[ti*len(c.classes)+ci] = nid
			}
		}
		// Failure symbols: sys·Err, strictly matched by origin task.
		for fi := 0; fi < failSyms; fi++ {
			task := ""
			if c.in.StrictFailureTask {
				task = c.tasks[fi]
			}
			next, err := advance(members, func(cf *conf) (bool, func(*csucc) bool) {
				return false, func(s *csucc) bool {
					if s.op != "Err" {
						return false
					}
					if !c.in.StrictFailureTask {
						return true
					}
					for _, o := range s.origins {
						if o == task {
							return true
						}
					}
					return false
				}
			})
			if err != nil {
				return nil, err
			}
			if len(next) == 0 {
				continue
			}
			nid, err := addState(next)
			if err != nil {
				return nil, err
			}
			row[len(c.tasks)*len(c.classes)+fi] = nid
		}
		// The queue may have grown; rows are indexed by state id, so
		// grow delta in state order.
		for int(sid)*numSymbols >= len(delta) {
			delta = append(delta, row...)
		}
		copy(delta[int(sid)*numSymbols:], row)
	}
	if len(delta) != len(states)*numSymbols {
		// States enqueued but never popped would be a bug; every id is
		// popped exactly once, so delta is exactly full here.
		return nil, fmt.Errorf("%w: internal: delta %d != %d states × %d symbols", ErrNotCompilable, len(delta), len(states), numSymbols)
	}

	// Per-state verdict metadata.
	for i := range states {
		if err := c.finishState(&states[i]); err != nil {
			return nil, err
		}
	}

	taskRoles := make([]string, len(c.tasks))
	for i, t := range c.tasks {
		taskRoles[i] = c.taskRole[t]
	}
	configs := make([]Config, len(c.confs))
	for i, cf := range c.confs {
		configs[i] = Config{Term: cf.termRef, Active: cf.activeID}
	}
	return &DFA{
		Compiler:          CompilerVersion,
		Purpose:           c.in.Purpose,
		Strict:            c.in.StrictFailureTask,
		NoAbsorption:      c.in.DisableAbsorption,
		MaxConfigurations: c.maxConfigs,
		Tasks:             c.tasks,
		TaskRoles:         taskRoles,
		PoolRoles:         c.pools,
		Classes:           c.classes,
		RoleClass:         c.roleClass,
		ZeroClass:         c.zeroClass,
		Terms:             c.terms,
		Texts:             c.texts,
		ActiveSets:        c.activeSets,
		Configs:           configs,
		States:            states,
		Start:             0,
		Delta:             delta,
	}, nil
}

// finishState derives the verdict metadata of one determinized set:
// the completion bit and the violation/worklist views, rendered exactly
// as the interpreter renders them.
func (c *compiler) finishState(st *State) error {
	expected := map[string]bool{}
	activeSet := map[string]bool{}
	activePairs := map[Offer]bool{}
	firePairs := map[Offer]bool{}
	for _, id := range st.Members {
		if err := c.ensureSuccs(id); err != nil {
			return err
		}
		cf := c.confs[id]
		if !st.CanComplete {
			done, err := c.sys.CanTerminateSilently(cf.svc)
			if err != nil {
				return fmt.Errorf("%w: completion check: %v", ErrNotCompilable, err)
			}
			if done {
				st.CanComplete = true
			}
		}
		for i := range cf.succs {
			s := &cf.succs[i]
			if s.op == "Err" {
				expected["sys.Err("+joinPlus(s.origins)+")"] = true
			} else {
				expected[s.partner+"."+s.op] = true
				if c.hasTask[s.op] {
					firePairs[Offer{Role: s.partner, Task: s.op}] = true
				}
			}
		}
		for _, a := range cf.active {
			activeSet[a.String()] = true
			activePairs[Offer{Role: a.Role, Task: a.Task}] = true
		}
	}
	for l := range expected {
		st.Expected = append(st.Expected, l)
	}
	sort.Strings(st.Expected)
	for a := range activeSet {
		st.ActiveTasks = append(st.ActiveTasks, a)
	}
	sort.Strings(st.ActiveTasks)
	for o := range activePairs {
		st.Active = append(st.Active, o)
	}
	sortOffers(st.Active)
	for o := range firePairs {
		st.Fire = append(st.Fire, o)
	}
	sortOffers(st.Fire)
	return nil
}

func joinPlus(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += "+"
		}
		out += p
	}
	return out
}
