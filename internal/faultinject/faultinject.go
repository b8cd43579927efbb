package faultinject

import (
	"strings"
	"sync"
	"time"
)

// Op names one kind of operation a schedule can target.
type Op uint8

const (
	// Filesystem seam (Injector.FS).
	OpOpen     Op = iota // OpenFile, ReadDir, Stat
	OpRead               // File.Read
	OpWrite              // File.Write (ShortWrite applies here)
	OpSync               // File.Sync — the fsync barrier
	OpRename             // FS.Rename
	OpRemove             // FS.Remove, FS.RemoveAll
	OpTruncate           // File.Truncate
	OpMkdir              // FS.MkdirAll

	// Transport seam (Injector.Transport, Injector.Listener).
	OpRoundTrip // one outgoing HTTP request (connection-level)
	OpBodyRead  // one response body (CutAfter/Delay apply per read)
	OpAccept    // one accepted server-side connection
	OpConnWrite // one accepted connection's write side (CutAfter)
)

var opNames = [...]string{
	"open", "read", "write", "sync", "rename", "remove", "truncate", "mkdir",
	"roundtrip", "bodyread", "accept", "connwrite",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "op?"
}

// Rule is one scripted fault. A rule matches calls by operation kind
// and path substring, counts the matches, and fires inside the
// half-open window [After, After+Count) of its own match count
// (Count == 0 latches the rule: it fires on every match past After,
// until Clear or SetRules replaces the schedule).
type Rule struct {
	// Op is the operation kind the rule targets.
	Op Op
	// Path, when non-empty, restricts the rule to calls whose path (a
	// file path on the FS seam, an URL path on the transport seam)
	// contains it as a substring.
	Path string
	// After lets the first After matching calls through unharmed.
	After int
	// Count fires the rule on the next Count matching calls; 0 means
	// every one after After.
	Count int
	// Err is returned to the caller when the rule fires. A fired rule
	// with a nil Err injects only latency (Delay).
	Err error
	// ShortWrite, on OpWrite, lands the first half of the buffer on
	// the underlying file before reporting Err — a torn write.
	ShortWrite bool
	// CutAfter, on OpBodyRead or OpConnWrite, lets that many bytes
	// through the stream before Err (or an abrupt close) — a
	// partition mid-frame.
	CutAfter int64
	// Delay is slept before the operation proceeds (or fails).
	Delay time.Duration
}

// Fired is one trace entry: rule Rule (index into the schedule) fired
// on the Seq'th call matching it (1-based), at the given op and path.
type Fired struct {
	Rule int
	Op   Op
	Path string
	Seq  int
}

// Injector owns a fault schedule and the counters that drive it. It
// is safe for concurrent use; the schedule can be swapped mid-test
// (SetRules, Clear) to model faults clearing.
type Injector struct {
	mu    sync.Mutex
	rules []Rule
	seen  []int
	fired []Fired
}

// NewInjector builds an injector over the given schedule.
func NewInjector(rules ...Rule) *Injector {
	inj := &Injector{}
	inj.SetRules(rules...)
	return inj
}

// SetRules replaces the schedule and resets every counter. The fired
// trace is preserved.
func (inj *Injector) SetRules(rules ...Rule) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.rules = append([]Rule(nil), rules...)
	inj.seen = make([]int, len(rules))
}

// Clear removes every rule: all faults stop firing.
func (inj *Injector) Clear() { inj.SetRules() }

// Fired returns a copy of the trace of fired faults so far.
func (inj *Injector) Fired() []Fired {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return append([]Fired(nil), inj.fired...)
}

// FireCount reports how many times any rule has fired on the given
// operation kind.
func (inj *Injector) FireCount(op Op) int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	n := 0
	for _, f := range inj.fired {
		if f.Op == op {
			n++
		}
	}
	return n
}

// directive is the outcome of matching one call against the schedule.
type directive struct {
	delay time.Duration
	err   error
	short bool
	cut   int64
}

func (d directive) sleep() {
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
}

// check records a matching call for (op, path) against every rule and
// returns the first firing rule's directive. All matching rules'
// counters advance whether or not an earlier rule fired, so windows
// compose over one shared call sequence (flapping = several windows).
func (inj *Injector) check(op Op, path string) directive {
	inj.mu.Lock()
	var d directive
	fired := false
	for i := range inj.rules {
		r := &inj.rules[i]
		if r.Op != op || (r.Path != "" && !strings.Contains(path, r.Path)) {
			continue
		}
		inj.seen[i]++
		if fired {
			continue
		}
		if inj.seen[i] <= r.After || (r.Count > 0 && inj.seen[i] > r.After+r.Count) {
			continue
		}
		fired = true
		d = directive{delay: r.Delay, err: r.Err, short: r.ShortWrite, cut: r.CutAfter}
		inj.fired = append(inj.fired, Fired{Rule: i, Op: op, Path: path, Seq: inj.seen[i]})
	}
	inj.mu.Unlock()
	return d
}

// gate is check for operations with no partial-success mode: sleep
// any injected latency, then return the injected error.
func (inj *Injector) gate(op Op, path string) error {
	d := inj.check(op, path)
	d.sleep()
	return d.err
}
