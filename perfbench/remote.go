package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"thriftybarrier/internal/remote"
	"thriftybarrier/thrifty/client"
)

// thriftydTCP is an in-process remote.Server on loopback TCP with one
// client.Client per CPU. Two-party barriers are multiplexed over the
// clients: barrier k pairs client k mod n with client k+1 mod n, and each
// client takes part in four barriers.
type thriftydTCP struct {
	seed    uint64
	srv     *remote.Server
	serveCh chan error
	clients []*client.Client
	// Party p waits on barrier barrierOf[p] through client clientOf[p].
	clientOf  []int
	barrierOf []string
	groups    [][]int
	// tap, when set, records every frame on both ends.
	tap  atomic.Pointer[wireTap]
	warm [2]int64 // warm-up Waits attempted and failed
}

func (td *thriftydTCP) warmed() (attempted, failed int64) { return td.warm[0], td.warm[1] }

const barriersPerClient = 2 // barriers per client, each with 2 parties

func setupThriftydTCP(cfg *config) (instance, error) {
	td := &thriftydTCP{seed: cfg.seed}
	if err := td.start(cfg.procs); err != nil {
		td.close()
		return nil, err
	}
	l := td.run(nil, warmupLimit, 30)
	td.warm = [2]int64{l.waits.Load(), l.fails.Load()}
	return td, nil
}

func (td *thriftydTCP) start(nclients int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	td.srv = remote.NewServer(remote.Options{})
	td.serveCh = make(chan error, 1)
	go func() { td.serveCh <- td.srv.Serve(tapListener{ln, td}) }()
	addr := ln.Addr().String()
	for i := 0; i < nclients; i++ {
		id := clientName(i)
		c, err := client.New(client.Options{
			ClientID: id,
			Seed:     td.seed,
			Dial: func(ctx context.Context) (net.Conn, error) {
				var d net.Dialer
				conn, err := d.DialContext(ctx, "tcp", addr)
				if err != nil {
					return nil, err
				}
				return &tapConn{Conn: conn, td: td, side: sideClient, owner: id}, nil
			},
		})
		if err != nil {
			return err
		}
		td.clients = append(td.clients, c)
	}
	for k := 0; k < barriersPerClient*nclients; k++ {
		g := []int{len(td.clientOf), len(td.clientOf) + 1}
		name := fmt.Sprintf("b%d", k)
		td.clientOf = append(td.clientOf, k%nclients, (k+1)%nclients)
		td.barrierOf = append(td.barrierOf, name, name)
		td.groups = append(td.groups, g)
	}
	return nil
}

// close tears the service down. A wedged server can block Close forever
// (its connection goroutines never return), so Close gets a time limit
// and the run reports the wedge instead of hanging.
func (td *thriftydTCP) close() {
	for _, c := range td.clients {
		c.Close()
	}
	if td.srv == nil {
		return
	}
	done, abandon := make(chan struct{}), make(chan struct{})
	go func() {
		td.srv.Close()
		close(done)
	}()
	t := time.AfterFunc(5*time.Second, func() { close(abandon) })
	defer t.Stop()
	select {
	case <-done:
		<-td.serveCh
	case <-abandon:
		fmt.Fprintln(os.Stderr, "perfbench: thriftyd server did not close within 5s; abandoning it")
	}
}

// think is party p's seeded think time before round r: a quarter of the
// rounds start at once (coincident arrivals), the rest after up to 2 ms.
func (td *thriftydTCP) think(p int, r int64) time.Duration {
	u := unit(mix(td.seed, uint64(r), uint64(p)))
	if u < 0.25 {
		return 0
	}
	return time.Duration((u - 0.25) / 0.75 * float64(2*time.Millisecond))
}

func (td *thriftydTCP) run(tap *wireTap, d time.Duration, rounds int64) *roundLoop {
	td.tap.Store(tap)
	defer td.tap.Store(nil)
	return runRounds(td.groups, d, rounds, nil,
		func(p int, r int64) {
			if t := td.think(p, r); t > 0 {
				time.Sleep(t)
			}
		},
		func(ctx context.Context, p int, r int64) error {
			return td.clients[td.clientOf[p]].Wait(ctx, td.barrierOf[p], 2)
		})
}

func (td *thriftydTCP) measure(cfg *config, d time.Duration) *outcome {
	out := newOutcome()
	var tap *wireTap
	if cfg.tr != nil {
		tap = &wireTap{base: time.Now()}
	}
	s0 := td.srv.Stats()
	c0, t0 := cpuTime(), time.Now()
	l := td.run(tap, d, 0)
	wall, cpu := time.Since(t0), cpuTime()-c0
	cfg.heap.sample()
	s1 := td.srv.Stats()

	st := l.rounds()
	completed, late, rtt := st.completed, st.late, st.rtt
	out.attempted, out.failed = l.waits.Load(), l.fails.Load()
	st.check(out)
	rel := s1.Releases - s0.Releases
	switch {
	case out.failed == 0 && rel != uint64(completed):
		out.fail("server released %d epochs for %d completed rounds", rel, completed)
	case rel < uint64(completed):
		out.fail("server released %d epochs, fewer than the %d completed rounds", rel, completed)
	}
	if completed == 0 {
		out.fail("no round completed")
		return out
	}
	out.roundsPS = float64(completed) / wall.Seconds()
	out.cpuPerRnd = float64(cpu.Microseconds()) / float64(completed)
	ls, rs := summarize(late), summarize(rtt)
	out.report.put("late_p50_us", ls.P50, "us")
	out.report.put("late_p99_us", ls.Tail, "us")
	out.report.put("rtt_p50_us", rs.P50, "us")
	out.report.put("rtt_p99_us", rs.Tail, "us")
	fmt.Printf("# thriftyd-tcp lateness (us): %s; round trip (us): %s\n", ls, rs)

	m := out.layer
	m.put("remote.registrations", float64(s1.Registrations-s0.Registrations), "count")
	m.put("remote.dup_registrations", float64(s1.DupRegistrations-s0.DupRegistrations), "count")
	m.put("remote.replays", float64(s1.Replays-s0.Replays), "count")
	m.put("remote.breaks", float64(s1.Breaks-s0.Breaks), "count")
	m.put("remote.bad_frames", float64(s1.BadFrames-s0.BadFrames), "count")
	if tap != nil {
		tap.analyze(td, l, completed, cfg.tr, m)
	}
	return out
}

// Frame tapping. The service is timed from outside: the benchmark wraps
// the connections the client dials and the server accepts, and decodes
// every frame with the remote package's decoders.

const (
	sideClient = iota
	sideServer
)

type tapListener struct {
	net.Listener
	td *thriftydTCP
}

func (l tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, td: l.td, side: sideServer}, nil
}

// tapConn reports every frame it carries to the workload's current tap.
// WriteFrame writes one whole frame per Write; reads are reassembled.
type tapConn struct {
	net.Conn
	td    *thriftydTCP
	side  int
	owner string // the client's ID, on the client side
	rbuf  []byte
}

func (c *tapConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if tap := c.td.tap.Load(); tap != nil && n == len(p) && len(p) > 4 {
		tap.frame(c.side, c.owner, true, p[4:], time.Now())
	}
	return n, err
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	tap := c.td.tap.Load()
	if tap == nil {
		c.rbuf = c.rbuf[:0]
		return n, err
	}
	if n > 0 {
		now := time.Now()
		c.rbuf = append(c.rbuf, p[:n]...)
		for len(c.rbuf) >= 4 {
			size := int(binary.BigEndian.Uint32(c.rbuf))
			if len(c.rbuf) < 4+size {
				break
			}
			tap.frame(c.side, c.owner, false, c.rbuf[4:4+size], now)
			c.rbuf = c.rbuf[4+size:]
		}
		c.rbuf = append([]byte(nil), c.rbuf...)
	}
	return n, err
}

// frameEvent is one frame seen on one end of a connection.
type frameEvent struct {
	at      int64 // ns since the tap's base
	side    int
	write   bool
	typ     byte
	size    int
	client  string // the client end's owner, or a register's sender
	barrier string
	nonce   uint64
	epoch   uint64
	tier    byte
}

// wireTap collects frame events in memory.
type wireTap struct {
	base   time.Time
	mu     sync.Mutex
	events []frameEvent
}

func (t *wireTap) frame(side int, owner string, write bool, payload []byte, at time.Time) {
	if len(payload) == 0 {
		return
	}
	ev := frameEvent{at: at.Sub(t.base).Nanoseconds(), side: side, write: write, typ: payload[0],
		size: len(payload) + 4, client: owner}
	switch payload[0] {
	case remote.FrameRegister:
		if f, err := remote.DecodeRegister(payload); err == nil {
			ev.client, ev.barrier, ev.nonce = f.ClientID, f.Barrier, f.Nonce
		}
	case remote.FrameDirective:
		if f, err := remote.DecodeDirective(payload); err == nil {
			ev.barrier, ev.nonce, ev.epoch, ev.tier = f.Barrier, f.Nonce, f.Epoch, f.Tier
		}
	case remote.FrameRelease:
		if f, err := remote.DecodeRelease(payload); err == nil {
			ev.barrier, ev.epoch = f.Barrier, f.Epoch
		}
	}
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// analyze derives the per-hop times and wire counters of a traced run:
//
//	client.send  Wait called → its register frame written by the client
//	remote.turn  the epoch's last register read by the server → the
//	             first release frame written
//	remote.fanout first → last release frame written for the epoch
//	client.wake  release frame read by the client → Wait returned
//
// Registers are matched to Wait calls by order: each (client, barrier)
// has one party, whose Wait calls carry increasing nonces.
func (t *wireTap) analyze(td *thriftydTCP, l *roundLoop, completed int, tr *tracer, m metricSet) {
	t.mu.Lock()
	events := t.events
	t.mu.Unlock()
	tapOff := t.base.Sub(l.base).Nanoseconds() // tap time → loop time

	type key struct{ client, barrier string }
	type epochKey struct {
		barrier string
		epoch   uint64
	}
	firstWrite := map[key]map[uint64]int64{} // client register writes by nonce
	var regWrites, resends int
	regRead := map[key]map[uint64]int64{}     // server register reads by nonce
	nonceEpoch := map[key]map[uint64]uint64{} // from directives read by clients
	relWrites := map[epochKey][]int64{}
	relRead := map[key]map[uint64]int64{} // client release reads by epoch
	var frames, bytes int
	var tiers [4]int
	put := func(m map[key]map[uint64]int64, k key, id uint64, at int64) {
		if m[k] == nil {
			m[k] = map[uint64]int64{}
		}
		if _, ok := m[k][id]; !ok {
			m[k][id] = at
		}
	}
	for i := range events {
		ev := &events[i]
		at := ev.at + tapOff
		if ev.write {
			frames++
			bytes += ev.size
		}
		switch {
		case ev.typ == remote.FrameRegister && ev.side == sideClient && ev.write:
			regWrites++
			k := key{ev.client, ev.barrier}
			if _, seen := firstWrite[k][ev.nonce]; seen {
				resends++
			}
			put(firstWrite, k, ev.nonce, at)
		case ev.typ == remote.FrameRegister && ev.side == sideServer && !ev.write:
			put(regRead, key{ev.client, ev.barrier}, ev.nonce, at)
		case ev.typ == remote.FrameDirective && ev.side == sideClient && !ev.write:
			if int(ev.tier) < len(tiers) {
				tiers[ev.tier]++
			}
			k := key{ev.client, ev.barrier}
			if nonceEpoch[k] == nil {
				nonceEpoch[k] = map[uint64]uint64{}
			}
			nonceEpoch[k][ev.nonce] = ev.epoch
		case ev.typ == remote.FrameRelease && ev.side == sideServer && ev.write:
			ek := epochKey{ev.barrier, ev.epoch}
			relWrites[ek] = append(relWrites[ek], at)
		case ev.typ == remote.FrameRelease && ev.side == sideClient && !ev.write:
			put(relRead, key{ev.client, ev.barrier}, ev.epoch, at)
		}
	}

	ix := addSpans(tr, "client.wait", l)
	off := tr.since(l.base)
	var send, turn, fanout, wake []float64
	lastReg := map[epochKey]int64{}
	epochRound := map[epochKey][2]int64{} // (group, round) of each epoch
	for p := range td.clientOf {
		k := key{clientName(td.clientOf[p]), td.barrierOf[p]}
		nonces := sortedKeys(firstWrite[k])
		if lo, _ := l.window(p); lo > 0 {
			continue // early rounds are off the record: nonces no longer line up
		}
		calls := realCalls(l, p)
		for i, nonce := range nonces {
			if i >= len(calls) {
				break
			}
			r := calls[i]
			a := l.rec(p, r)
			sent := firstWrite[k][nonce]
			send = append(send, float64(sent-a.Call)/1e3)
			ep, ok := nonceEpoch[k][nonce]
			if !ok {
				continue
			}
			ek := epochKey{k.barrier, ep}
			epochRound[ek] = [2]int64{int64(p / 2), r}
			if rr, ok := regRead[k][nonce]; ok && rr > lastReg[ek] {
				lastReg[ek] = rr
			}
			rd, ok := relRead[k][ep]
			if !ok || !a.OK {
				continue
			}
			wake = append(wake, float64(a.Ret-rd)/1e3)
			if w, ok := ix.wait[[2]int64{int64(p), r}]; ok {
				tr.add("client.send", w, r, off+a.Call, off+sent)
				tr.add("client.wake", w, r, off+rd, off+a.Ret)
			}
		}
	}
	for ek, ws := range relWrites {
		lo, hi := ws[0], ws[0]
		for _, w := range ws {
			lo, hi = min(lo, w), max(hi, w)
		}
		root, traced := ix.round[epochRound[ek]]
		if lr, ok := lastReg[ek]; ok && lo >= lr {
			turn = append(turn, float64(lo-lr)/1e3)
			if traced {
				tr.add("remote.turn", root, epochRound[ek][1], off+lr, off+lo)
			}
		}
		if len(ws) > 1 {
			fanout = append(fanout, float64(hi-lo)/1e3)
			if traced {
				tr.add("remote.fanout", root, epochRound[ek][1], off+lo, off+hi)
			}
		}
	}
	for _, h := range []struct {
		name string
		xs   []float64
	}{{"client.send_us", send}, {"remote.turn_us", turn}, {"remote.fanout_us", fanout}, {"client.wake_us", wake}} {
		s := summarize(h.xs)
		m.put(h.name+".p50", s.P50, "us")
		m.put(h.name+".p99", s.Tail, "us")
		fmt.Printf("# thriftyd-tcp %s: %s\n", h.name, s)
	}
	m.put("remote.resend_frac", ratio(float64(resends), float64(regWrites)), "ratio")
	m.put("remote.frames_per_round", float64(frames)/float64(completed), "count")
	m.put("remote.bytes_per_round", float64(bytes)/float64(completed), "B")
	for i, name := range []string{"spin", "yield", "timed_park", "park"} {
		m.put("remote.directive."+name, float64(tiers[i]), "count")
	}
}

func clientName(i int) string { return fmt.Sprintf("c%d", i) }

func sortedKeys(m map[uint64]int64) []uint64 {
	ks := make([]uint64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// realCalls lists the rounds in which a party called Wait, skipping the
// placeholder records of rounds it skipped.
func realCalls(l *roundLoop, p int) []int64 {
	lo, hi := l.window(p)
	out := make([]int64, 0, hi-lo)
	for r := lo; r < hi; r++ {
		if a := l.rec(p, r); a.Call != 0 || a.Ret != 0 {
			out = append(out, r)
		}
	}
	return out
}
