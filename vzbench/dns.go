package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"

	"vzlens/internal/bgp"
	"vzlens/internal/dnsplane"
	"vzlens/internal/dnsroot"
	"vzlens/internal/dnswire"
	"vzlens/internal/geo"
	"vzlens/internal/months"
	"vzlens/internal/obs"
	"vzlens/internal/scenario"
	"vzlens/internal/world"
)

const (
	// dnsPool is the number of distinct query packets; clients cycle it.
	dnsPool = 8192
	// dnsChecked is the fixed seeded subset of pool packets whose every
	// reply is compared with Resolver.Handle: one packet in sixteen.
	dnsChecked = dnsPool / 16
	// dnsSwapEvery is the cadence of scenario swaps in the timed phase,
	// in queries (about 200 ms at this commit): counted, not timed, so
	// the share of queries that meet an empty answer cache, which sets
	// p99, does not change with how fast the host runs.
	dnsSwapEvery = 10000
	// dnsTimeout bounds one query's wait for its reply.
	dnsTimeout = time.Second
	// dnsHandlePasses is how often the traced run replays the pool
	// through a warm Resolver.Handle.
	dnsHandlePasses = 8
)

// dnsSwapSpec is the scenario the timed phase swaps in and out: root
// replicas in Caracas move Venezuelan clients' catchments.
const dnsSwapSpec = `{"id": "bench-dns-swap", "name": "Root replicas in Caracas",
 "ops": [
  {"op": "add_root", "letter": "L", "host": 8048, "iata": "CCS", "from": "2020-01"},
  {"op": "add_root", "letter": "F", "host": 8048, "iata": "CCS", "from": "2020-01"},
  {"op": "add_root", "letter": "K", "host": 8048, "iata": "MAR", "from": "2020-01"}
 ]}`

// dnsQueries draws the packet pool: the 13 letters × {CH TXT
// hostname.bind, CH TXT id.server, IN A, IN AAAA, IN TXT} × {no ECS,
// probe 10.x.y.z/32, geo ECS}.
func dnsQueries(seed int64, probes []int) ([][]byte, error) {
	rng := rand.New(rand.NewSource(seed))
	pool := make([][]byte, dnsPool)
	for i := range pool {
		l := strings.ToLower(dnsroot.Letters()[rng.Intn(13)].String())
		var q dnswire.Question
		switch rng.Intn(5) {
		case 0:
			q = dnswire.Question{Name: "hostname.bind." + l, Type: dnswire.TypeTXT, Class: dnswire.ClassCH}
		case 1:
			q = dnswire.Question{Name: "id.server." + l, Type: dnswire.TypeTXT, Class: dnswire.ClassCH}
		case 2:
			q = dnswire.Question{Name: l + ".root-servers.vz", Type: dnswire.TypeA, Class: dnswire.ClassIN}
		case 3:
			q = dnswire.Question{Name: l + ".root-servers.vz", Type: dnswire.TypeAAAA, Class: dnswire.ClassIN}
		default:
			q = dnswire.Question{Name: l + ".root-servers.vz", Type: dnswire.TypeTXT, Class: dnswire.ClassIN}
		}
		pkt, err := dnswire.EncodeQuery(uint16(i), q)
		if err != nil {
			return nil, err
		}
		switch rng.Intn(3) {
		case 1:
			id := probes[rng.Intn(len(probes))]
			ecs := dnswire.ECS{Family: dnswire.ECSFamilyIPv4, SourcePrefix: 32, AddrLen: 4}
			copy(ecs.Addr[:], []byte{10, byte(id >> 16), byte(id >> 8), byte(id)})
			pkt = dnswire.AppendQueryOPT(pkt, 1232, &ecs)
		case 2:
			ecs := dnswire.ECS{Family: dnswire.ECSFamilyIPv4, SourcePrefix: 24, AddrLen: 3}
			copy(ecs.Addr[:], []byte{byte(11 + rng.Intn(212)), byte(rng.Intn(256)), byte(rng.Intn(256))})
			pkt = dnswire.AppendQueryOPT(pkt, 1232, &ecs)
		}
		pool[i] = pkt
	}
	return pool, nil
}

// dnsReply is one checked reply: which packet, under which scenario
// state (0 baseline, 1 swapped in), and the bytes the server sent.
type dnsReply struct {
	idx, epoch int
	msg        []byte
}

// sameAnswer compares two DNS responses, ignoring the message ID.
func sameAnswer(got, want []byte) bool {
	return len(got) >= 2 && len(want) >= 2 && bytes.Equal(got[2:], want[2:])
}

func runDNS(ctx context.Context, b *bench) (*outcome, error) {
	o := newOutcome()
	e, err := newEnv(b, o, b.cfg.trace)
	if err != nil {
		return nil, err
	}
	spec, err := scenario.ParseSpec([]byte(dnsSwapSpec))
	if err != nil {
		return nil, err
	}
	plan, err := spec.Compile(e.w)
	if err != nil {
		return nil, err
	}
	month := e.w.DefaultDNSMonth()
	var probes []int
	for _, p := range e.w.Fleet.ActiveAt(month) {
		probes = append(probes, p.ID)
	}
	sort.Ints(probes)
	pool, err := dnsQueries(b.cfg.seed, probes)
	if err != nil {
		return nil, err
	}
	ih := newInputsHasher("dns", b.cfg.seed)
	for _, pkt := range pool {
		ih.add(pkt)
	}
	o.inputsHash = ih.sum()
	checked := make([]bool, dnsPool)
	for _, i := range rand.New(rand.NewSource(b.cfg.seed + 1)).Perm(dnsPool)[:dnsChecked] {
		checked[i] = true
	}
	if b.cfg.trace {
		dnsAnswerLayer(b, o, e.w, probes)
	}

	spec0 := serverSpec{bin: b.cfg.server, dns: true, logTo: b.path("vzserve.log")}
	probe := func(s *server) func() bool {
		return func() bool {
			c, err := net.DialUDP("udp", nil, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: s.dnsPort})
			if err != nil {
				return false
			}
			defer c.Close()
			_ = c.SetDeadline(time.Now().Add(50 * time.Millisecond))
			if _, err := c.Write(pool[0]); err != nil {
				return false
			}
			buf := make([]byte, 1500)
			n, err := c.Read(buf)
			return err == nil && n > 2
		}
	}
	s, err := launch(ctx, b, o, spec0, nil, probe)
	if err != nil {
		return nil, err
	}
	ctl := keepAliveClient()
	defer ctl.CloseIdleConnections()
	resp, err := ctl.Post(s.base+"/api/scenarios", "application/json", strings.NewReader(dnsSwapSpec))
	if err != nil {
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("register swap scenario: %s", resp.Status)
	}
	swap := func(on bool) error {
		method, path := http.MethodDelete, "/api/dns/scenario"
		if on {
			method, path = http.MethodPut, "/api/dns/scenario/"+spec.ID
		}
		req, err := http.NewRequest(method, s.base+path, nil)
		if err != nil {
			return err
		}
		resp, err := ctl.Do(req)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s %s: %s", method, path, resp.Status)
		}
		return nil
	}

	conn, err := net.DialUDP("udp", nil, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: s.dnsPort})
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	// Untimed pass over the op mix: every packet once, both states.
	for _, on := range []bool{true, false} {
		if err := swap(on); err != nil {
			return nil, err
		}
		for i, pkt := range pool {
			if _, err := exchange(conn, append([]byte(nil), pkt...), uint16(i), make([]byte, 1500)); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}

	p, err := beginPhase(s)
	if err != nil {
		return nil, err
	}
	// One client with one query in flight. With two, the two clients
	// and the server's readers queue for the two cores, and p99 measures
	// that queue more than the plane. A swap waits for the reply before
	// it, so every reply is known to come from one scenario state.
	var (
		st       loopStats
		replies  []dnsReply
		epoch    int
		swaps    int
		seq      int64
		sendBuf  = make([]byte, 0, 512)
		recvBuf  = make([]byte, 1500)
		deadline = p.deadline(b.cfg.seconds)
	)
	st.lat = make([]time.Duration, 0, 1<<21)
	st.at = make([]time.Duration, 0, 1<<21)
	st.okAt = make([]time.Duration, 0, 1<<21)
	// The client runs on a goroutine of its own: the main goroutine is
	// locked to its thread (see init), and a locked goroutine that blocks
	// for every reply costs a thread handoff per query.
	var swapErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		for time.Now().Before(deadline) {
			if seq >= int64(swaps+1)*dnsSwapEvery {
				if swapErr = swap(epoch == 0); swapErr != nil {
					return
				}
				epoch = 1 - epoch
				swaps++
			}
			i := int(seq % dnsPool)
			sendBuf = append(sendBuf[:0], pool[i]...)
			t0 := time.Now()
			msg, err := exchange(conn, sendBuf, uint16(seq), recvBuf)
			now := time.Now()
			seq++
			st.attempted++
			st.lat = append(st.lat, now.Sub(t0))
			st.at = append(st.at, now.Sub(p.start))
			if err != nil {
				st.failed++
				o.note("error: %v", err)
				continue
			}
			st.okAt = append(st.okAt, now.Sub(p.start))
			if checked[i] {
				replies = append(replies, dnsReply{idx: i, epoch: epoch, msg: append([]byte(nil), msg...)})
			}
		}
	}()
	<-done
	before, after, err := p.end(o)
	if err != nil {
		return nil, err
	}
	b.procs.stop(s)
	if swapErr != nil {
		return nil, swapErr
	}
	st.fill(o)
	o.note("dns: %d scenario swaps; checked subset %d of %d pool packets", swaps, dnsChecked, dnsPool)

	// Reference: one resolver per scenario state, over the same month.
	refs := [2]*dnsplane.Resolver{dnsplane.NewResolver(e.w, month), dnsplane.NewResolver(e.w, month)}
	refs[1].SetScenario(plan)
	want := map[[2]int][]byte{}
	for _, r := range replies {
		k := [2]int{r.idx, r.epoch}
		ref, ok := want[k]
		if !ok {
			ref, _ = refs[r.epoch].Handle(pool[r.idx], nil)
			want[k] = ref
		}
		o.checked++
		if !sameAnswer(r.msg, ref) {
			o.failed++
			o.ops--
			o.note("mismatch: pool packet %d (scenario %v) differs from Resolver.Handle", r.idx, r.epoch == 1)
		}
	}
	if b.cfg.trace {
		serverLayers(o, before, after)
		microLayers(b, o, true)
		dnsLayers(b, o, e.w, month, plan, pool)
	}
	return o, nil
}

// exchange sends one query with the given ID and waits for the reply
// carrying it; stale replies from timed-out queries are skipped.
func exchange(c *net.UDPConn, pkt []byte, id uint16, buf []byte) ([]byte, error) {
	binary.BigEndian.PutUint16(pkt, id)
	if _, err := c.Write(pkt); err != nil {
		return nil, err
	}
	if err := c.SetReadDeadline(time.Now().Add(dnsTimeout)); err != nil {
		return nil, err
	}
	for {
		n, err := c.Read(buf)
		if err != nil {
			return nil, fmt.Errorf("query id %d: %w", id, err)
		}
		if n >= 12 && binary.BigEndian.Uint16(buf) == id {
			return buf[:n], nil
		}
	}
}

// dnsAnswerLayer times a cold world.DNSAnswerAt for each client class
// the pool can name — the default vantage, every geo vantage, and
// every fleet probe's (country, AS, city) — crossed with the 13
// letters, on a world no query has touched yet.
func dnsAnswerLayer(b *bench, o *outcome, w *world.World, probes []int) {
	month := w.DefaultDNSMonth()
	type class struct {
		letter dnsroot.Letter
		cc     string
		asn    bgp.ASN
		city   geo.City
	}
	var classes []class
	seen := map[class]bool{}
	add := func(k class) {
		if !seen[k] {
			seen[k] = true
			classes = append(classes, k)
		}
	}
	for _, l := range dnsroot.Letters() {
		for _, cc := range append([]string{"VE"}, w.VantageCountries()...) {
			if asn, city, ok := w.CountryVantage(cc); ok {
				add(class{l, cc, asn, city})
			}
		}
		for _, pid := range probes {
			if p, ok := w.ProbeAt(pid, month); ok {
				add(class{l, p.Country, p.ASN, p.City})
			}
		}
	}
	id := b.spans.begin("world.dns_answer", 0, -1)
	for _, k := range classes {
		_, _ = w.DNSAnswerAt(k.letter, month, k.cc, k.asn, k.city, nil)
	}
	o.layers["world.dns_answer_us"] = us(b.spans.end(id)) / float64(max(len(classes), 1))
}

// dnsLayers is the traced replay of the packet pool through dnswire
// and a warm dnsplane.Resolver, with scenario swaps at the loopback
// phase's cadence.
func dnsLayers(b *bench, o *outcome, w *world.World, month months.Month, plan *world.ScenarioPlan, pool [][]byte) {
	var q dnswire.Query
	const parsePasses = 20
	id := b.spans.begin("dnswire.parse", 0, -1)
	for r := 0; r < parsePasses; r++ {
		for _, pkt := range pool {
			_ = dnswire.ParseQuery(pkt, &q)
		}
	}
	o.layers["dnswire.parse_ns"] = float64(b.spans.end(id)) / (parsePasses * dnsPool)

	res := dnsplane.NewResolver(w, month)
	dst := make([]byte, 0, 1500)
	for _, pkt := range pool { // warm the answer cache
		dst, _ = res.Handle(pkt, dst[:0])
	}
	lat := make([]time.Duration, 0, dnsHandlePasses*dnsPool)
	id = b.spans.begin("dnsplane.handle", 0, -1)
	_, allocs := allocsDuring(func() {
		for r := 0; r < dnsHandlePasses; r++ {
			for _, pkt := range pool {
				t0 := time.Now()
				dst, _ = res.Handle(pkt, dst[:0])
				lat = append(lat, time.Since(t0))
			}
		}
	})
	b.spans.end(id)
	lat = sortedCopy(lat)
	o.layers["dnsplane.handle_ns.p50"] = float64(quantile(lat, 0.5))
	o.layers["dnsplane.handle_ns.p99"] = float64(quantile(lat, 0.99))
	o.layers["dnsplane.handle_allocs"] = float64(allocs) / float64(len(lat))
	o.layers["dnsplane.net_us.p50"] = us(quantile(sortedCopy(o.latencies), 0.5)) - us(quantile(lat, 0.5))

	// The loopback phase's query order with its swaps, on a warmed
	// resolver: the share of lookups its class cache served, read from
	// its own counters (QueryInfo.CacheHit is never set by the plane).
	res = dnsplane.NewResolver(w, month)
	reg := obs.NewRegistry()
	res.Instrument(reg)
	for _, pkt := range pool {
		dst, _ = res.Handle(pkt, dst[:0])
	}
	var before, after bytes.Buffer
	reg.WritePrometheus(&before)
	total := min(int(o.attempted), 50*dnsPool)
	on := false
	id = b.spans.begin("dnsplane.replay", 0, -1)
	for i := 0; i < total; i++ {
		if i > 0 && i%dnsSwapEvery == 0 {
			on = !on
			if on {
				res.SetScenario(plan)
			} else {
				res.SetScenario(nil)
			}
		}
		dst, _ = res.Handle(pool[i%dnsPool], dst[:0])
	}
	b.spans.end(id)
	reg.WritePrometheus(&after)
	m0, m1 := parseProm(before.Bytes()), parseProm(after.Bytes())
	hits := m1[`vz_dns_answer_cache_total{outcome="hit"}`] - m0[`vz_dns_answer_cache_total{outcome="hit"}`]
	misses := m1[`vz_dns_answer_cache_total{outcome="miss"}`] - m0[`vz_dns_answer_cache_total{outcome="miss"}`]
	o.layers["dnsplane.cache_hit_ratio"] = ratio(hits, hits+misses)

	// Refill after a swap: every class of the pool answered again.
	const refills = 4
	for r := 0; r < refills; r++ {
		p := plan
		if r%2 == 1 {
			p = nil
		}
		b.spans.timed("dnsplane.swap_refill", 0, -1, func() {
			res.SetScenario(p)
			for _, pkt := range pool {
				dst, _ = res.Handle(pkt, dst[:0])
			}
		})
	}
	o.layers["dnsplane.swap_refill_ms"] = ms(median(b.spans.durations("dnsplane.swap_refill")))
}
