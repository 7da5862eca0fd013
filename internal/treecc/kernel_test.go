package treecc

import (
	"testing"

	"innetcc/internal/network"
)

// kmesh hosts the kernel tests: a 3×3 mesh whose center (node 4) is the
// home. Node 1 is the home's North neighbor, so its South link leads home.
var kmesh = network.Mesh2D{W: 3, H: 3}

func at(node int, bugs Bug) Site { return Site{Node: node, Home: 4, Topo: kmesh, Bugs: bugs} }

func links(ds ...network.Dir) (l [network.MaxDegree]bool) {
	for _, d := range ds {
		l[d] = true
	}
	return l
}

const (
	north = network.North
	south = network.South
	east  = network.East
)

// TestKernelSteps drives the kernel functions over hand-built lines: each
// case names the line before, the step, and the Step and line after (a nil
// line stays absent). BugAcceptStaleReply and BugLostWriteback act on reply
// epochs and data, not on tree lines, so they have no case here.
func TestKernelSteps(t *testing.T) {
	cases := []struct {
		name   string
		bug    Bug // armed in the step's Site
		line   *TreeLine
		step   func(*TreeLine, Bug) Step
		want   Step
		after  TreeLine
		absent bool
	}{
		{
			name:  "ack held under OutstandingReq",
			line:  &TreeLine{Links: links(south, east), RootDir: south, Touched: true, OutstandingReq: true},
			step:  func(l *TreeLine, b Bug) Step { return Ack(l, at(1, b), east, false) },
			after: TreeLine{Links: links(south), RootDir: south, Touched: true, OutstandingReq: true},
		},
		{
			name:  "teardown holds its ack under OutstandingReq",
			line:  &TreeLine{Links: links(south), RootDir: south, LocalValid: true, OutstandingReq: true},
			step:  func(l *TreeLine, b Bug) Step { return Teardown(l, at(1, b), network.DirNone, false) },
			want:  Step{Fanout: 1 << south, Links: 1, Fx: FxTouch | FxDropData | FxHeld},
			after: TreeLine{Links: links(south), RootDir: south, Touched: true, OutstandingReq: true},
		},
		{
			name:  "held collapse released by the completion",
			line:  &TreeLine{Links: links(south), RootDir: south, Touched: true, OutstandingReq: true},
			step:  func(l *TreeLine, b Bug) Step { return Finish(l, at(1, b)) },
			want:  Step{Ack: south, Fx: FxAck | FxFree},
			after: TreeLine{RootDir: south, Touched: true},
		},
		{
			name:  "unlink ack on a live line",
			line:  &TreeLine{Links: links(south, east), RootDir: south},
			step:  func(l *TreeLine, b Bug) Step { return Ack(l, at(1, b), east, true) },
			want:  Step{Fx: FxUnlinked},
			after: TreeLine{Links: links(south), RootDir: south},
		},
		{
			name:  "stale ack on a missing link",
			line:  &TreeLine{Links: links(south), RootDir: south, Touched: true},
			step:  func(l *TreeLine, b Bug) Step { return Ack(l, at(1, b), east, false) },
			want:  Step{Fx: FxStale},
			after: TreeLine{Links: links(south), RootDir: south, Touched: true},
		},
		{
			name:   "stale ack on an absent line",
			step:   func(l *TreeLine, b Bug) Step { return Ack(l, at(1, b), east, false) },
			want:   Step{Fx: FxStale},
			absent: true,
		},
		{
			name:  "abort teardown clears its link on a touched line",
			line:  &TreeLine{Links: links(south, east), RootDir: south, Touched: true},
			step:  func(l *TreeLine, b Bug) Step { return Teardown(l, at(1, b), east, true) },
			want:  Step{Ack: south, Fx: FxAck | FxFree},
			after: TreeLine{RootDir: south, Touched: true},
		},
		{
			name:  "crossing teardown on a touched line",
			line:  &TreeLine{Links: links(south, east), RootDir: south, Touched: true},
			step:  func(l *TreeLine, b Bug) Step { return Teardown(l, at(1, b), east, false) },
			after: TreeLine{Links: links(south, east), RootDir: south, Touched: true},
		},
		{
			name:  "single-link initiator away from home",
			line:  &TreeLine{Links: links(south), RootDir: south},
			step:  func(l *TreeLine, b Bug) Step { return Teardown(l, at(1, b), network.DirNone, false) },
			want:  Step{Fanout: 1 << south, Ack: south, Links: 1, Fx: FxTouch | FxAck | FxFree},
			after: TreeLine{RootDir: south, Touched: true},
		},
		{
			name:  "root data captured on teardown",
			line:  &TreeLine{Links: links(south, east), IsRoot: true, RootDir: network.DirNone, LocalValid: true},
			step:  func(l *TreeLine, b Bug) Step { return Teardown(l, at(1, b), network.DirNone, false) },
			want:  Step{Fanout: 1<<south | 1<<east, Links: 2, Fx: FxTouch | FxDropData | FxRootData},
			after: TreeLine{Links: links(south, east), IsRoot: true, RootDir: network.DirNone, Touched: true},
		},
		{
			name:  "home completes at zero links",
			line:  &TreeLine{Links: links(north), RootDir: north, Touched: true},
			step:  func(l *TreeLine, b Bug) Step { return Ack(l, at(4, b), north, false) },
			want:  Step{Fx: FxFree | FxComplete},
			after: TreeLine{RootDir: north, Touched: true},
		},
		{
			name:  "home terminates acks above zero links",
			line:  &TreeLine{Links: links(north, south), RootDir: north, Touched: true},
			step:  func(l *TreeLine, b Bug) Step { return Ack(l, at(4, b), north, false) },
			after: TreeLine{Links: links(south), RootDir: north, Touched: true},
		},
		{
			name: "requester reverts after following an edge into a collapsed node",
			step: func(l *TreeLine, b Bug) Step {
				return Reply(l, at(1, b), ReplyMsg{Requester: 1, Arrival: south, Read: true})
			},
			want:   Step{Act: Revert},
			absent: true,
		},
		{
			name: "grafting reply whose serving line was torn down",
			line: &TreeLine{Links: links(south), RootDir: south, Touched: true},
			step: func(l *TreeLine, b Bug) Step {
				return Reply(l, at(1, b), ReplyMsg{Requester: 0, Arrival: network.Local, Read: true})
			},
			want:  Step{Act: Revert, Fx: FxRaced},
			after: TreeLine{Links: links(south), RootDir: south, Touched: true},
		},
		{
			name: "fresh reply builds the home's line and lifts the marker",
			step: func(l *TreeLine, b Bug) Step {
				return Reply(l, at(4, b), ReplyMsg{Requester: 1, Arrival: network.Local, Root: true})
			},
			want: Step{Act: Forward, Out: north, Built: true, Fx: FxAlloc | FxNewGen | FxReleasePending,
				New: TreeLine{Links: links(north), RootDir: north}},
			absent: true,
		},
		{
			name: "requester anchors a grafting reply and unlinks the re-entry",
			line: &TreeLine{Links: links(east), RootDir: east},
			step: func(l *TreeLine, b Bug) Step {
				return Reply(l, at(1, b), ReplyMsg{Requester: 1, Arrival: south, Built: true, Read: true})
			},
			want:  Step{Act: Eject, Ack: south, Fx: FxUnlink},
			after: TreeLine{Links: links(east), RootDir: east, OutstandingReq: true},
		},
		{
			name: "reply stalls on a line mid-teardown",
			line: &TreeLine{Links: links(south), RootDir: south, Touched: true},
			step: func(l *TreeLine, b Bug) Step {
				return Reply(l, at(1, b), ReplyMsg{Requester: 0, Arrival: south, Root: true, Built: true})
			},
			want:  Step{Act: Stall},
			after: TreeLine{Links: links(south), RootDir: south, Touched: true},
		},
		{
			name:  "read steered toward the root",
			line:  &TreeLine{Links: links(south, east), RootDir: south},
			step:  func(l *TreeLine, b Bug) Step { return Request(l, at(2, b), false, false) },
			want:  Step{Act: Forward, Out: south, Fx: FxBump},
			after: TreeLine{Links: links(south, east), RootDir: south},
		},
		{
			name: "write at home waits for the collapse it starts",
			line: &TreeLine{Links: links(north), IsRoot: true, RootDir: network.DirNone},
			step: func(l *TreeLine, b Bug) Step { return Request(l, at(4, b), true, false) },
			want: Step{Act: QueueHome, Fanout: 1 << north, Links: 1, Fx: FxTouch},
			after: TreeLine{Links: links(north), IsRoot: true, RootDir: network.DirNone,
				Touched: true},
		},
		{
			name:   "request queues behind a home serve",
			step:   func(l *TreeLine, b Bug) Step { return Request(l, at(4, b), true, true) },
			want:   Step{Act: QueuePending},
			absent: true,
		},

		// Seeded defects that act on tree-line state.
		{
			name:  "drop-ack-hold forwards the ack under OutstandingReq",
			bug:   BugDropAckHold,
			line:  &TreeLine{Links: links(south), RootDir: south, LocalValid: true, OutstandingReq: true},
			step:  func(l *TreeLine, b Bug) Step { return Teardown(l, at(1, b), network.DirNone, false) },
			want:  Step{Fanout: 1 << south, Ack: south, Links: 1, Fx: FxTouch | FxDropData | FxAck | FxFree},
			after: TreeLine{RootDir: south, Touched: true, OutstandingReq: true},
		},
		{
			name:  "drop-td-ack frees the leaf without acknowledging",
			bug:   BugDropTdAck,
			line:  &TreeLine{Links: links(south), RootDir: south},
			step:  func(l *TreeLine, b Bug) Step { return Teardown(l, at(1, b), network.DirNone, false) },
			want:  Step{Fanout: 1 << south, Links: 1, Fx: FxTouch | FxFree},
			after: TreeLine{RootDir: south, Touched: true},
		},
		{
			name: "early-home-release completes as the teardowns fan out",
			bug:  BugEarlyHomeRelease,
			line: &TreeLine{Links: links(north, south), IsRoot: true, RootDir: network.DirNone},
			step: func(l *TreeLine, b Bug) Step {
				return Teardown(l, at(4, b), network.DirNone, false)
			},
			want:  Step{Fanout: 1<<north | 1<<south, Links: 2, Fx: FxTouch | FxFree | FxComplete},
			after: TreeLine{Links: links(north, south), IsRoot: true, RootDir: network.DirNone, Touched: true},
		},
		{
			name:  "skip-invalidate keeps the torn-down node's data",
			bug:   BugSkipInvalidate,
			line:  &TreeLine{Links: links(south), RootDir: south, LocalValid: true},
			step:  func(l *TreeLine, b Bug) Step { return Teardown(l, at(1, b), network.DirNone, false) },
			want:  Step{Fanout: 1 << south, Ack: south, Links: 1, Fx: FxTouch | FxAck | FxFree},
			after: TreeLine{RootDir: south, Touched: true, LocalValid: true},
		},
		{
			name:   "double-grant serves past the home-serve marker",
			bug:    BugDoubleGrant,
			step:   func(l *TreeLine, b Bug) Step { return Request(l, at(4, b), true, true) },
			want:   Step{Act: Eject, Fx: FxHomeServe},
			absent: true,
		},
	}
	covered := Bug(0)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var l *TreeLine
			if c.line != nil {
				cp := *c.line
				l = &cp
			}
			if got := c.step(l, c.bug); got != c.want {
				t.Errorf("step = %+v, want %+v", got, c.want)
			}
			if c.absent != (l == nil) {
				t.Fatalf("case must give a line exactly when it is not absent")
			}
			if l != nil && *l != c.after {
				t.Errorf("line after = %+v, want %+v", *l, c.after)
			}
		})
		covered |= c.bug
	}
	for _, b := range AllBugs() {
		if b&(BugAcceptStaleReply|BugLostWriteback) == 0 && covered&b == 0 {
			t.Errorf("no kernel case for %v", b)
		}
	}
}

// TestKernelAllocatesNothing pins the kernel as allocation-free: the
// simulator runs it on every hop of every protocol message.
func TestKernelAllocatesNothing(t *testing.T) {
	site := at(1, 0)
	home := at(4, 0)
	var l TreeLine
	allocs := testing.AllocsPerRun(100, func() {
		l = TreeLine{Links: links(south, east), RootDir: south, LocalValid: true}
		Request(&l, site, false, false)
		Request(&l, site, true, false)
		Ack(&l, site, east, false)
		Finish(&l, site)
		Request(nil, home, true, false)
		Reply(nil, site, ReplyMsg{Requester: 0, Arrival: south, Built: true, Read: true})
		l = TreeLine{Links: links(east), RootDir: east}
		Reply(&l, site, ReplyMsg{Requester: 0, Arrival: south, Built: true, Read: true})
		Reply(&l, site, ReplyMsg{Requester: 1, Arrival: network.Local, Root: true})
		Teardown(&l, site, network.DirNone, false)
		ReleaseHeld(&l, site)
		Serve(&l, true)
	})
	if allocs != 0 {
		t.Errorf("kernel steps allocate %.1f times per run, want 0", allocs)
	}
}
