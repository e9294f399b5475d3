package main

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"vzlens/internal/dnsplane"
	"vzlens/internal/facts"
	"vzlens/internal/httpapi"
	"vzlens/internal/months"
	"vzlens/internal/query"
)

// testEnv builds the in-process world and campaigns once per test.
func testEnv(t *testing.T) *env {
	t.Helper()
	e, err := newEnv(&bench{spans: newRecorder()}, newOutcome(), true)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// flip returns b with one byte changed.
func flip(b []byte, at int) []byte {
	out := append([]byte(nil), b...)
	out[at%len(out)] ^= 0x20
	return out
}

// TestCorruptedReferenceIsCaught drives each workload's check against
// real answers from the program (an in-process handler standing in for
// the server), first with the true reference, which must pass, then
// with a corrupted one, which must fail.
func TestCorruptedReferenceIsCaught(t *testing.T) {
	e := testEnv(t)
	h := httpapi.NewWithOptions(e.w, httpapi.Options{
		FactsDir:      t.TempDir(),
		TraceCampaign: e.traceCampaign,
		ChaosCampaign: e.chaosCampaign,
	})
	defer h.Close()
	h.Warm()
	serve := func(path string) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code, rec.Body.Bytes()
	}

	t.Run("figures", func(t *testing.T) {
		for _, d := range figureDocs(e) {
			code, body := serve(d.path)
			if err := d.check(code, body); err != nil {
				t.Fatalf("true reference rejected: %v", err)
			}
			d.want = flip(d.want, len(d.want)/2)
			if d.check(code, body) == nil {
				t.Fatalf("%s: corrupted reference accepted", d.path)
			}
		}
	})

	t.Run("query", func(t *testing.T) {
		lake := h.Lake()
		g := &planGen{
			rng:       rand.New(rand.NewSource(7)),
			trace:     [2]months.Month{lake.TraceMonths()[0], lake.TraceMonths()[len(lake.TraceMonths())-1]},
			chaos:     [2]months.Month{lake.ChaosMonths()[0], lake.ChaosMonths()[len(lake.ChaosMonths())-1]},
			countries: e.w.VantageCountries(),
		}
		plans := make([]string, 200)
		got := make([]uint64, len(plans))
		for i := range plans {
			plans[i] = g.next()
			code, body := serve(plans[i])
			if code != http.StatusOK {
				t.Fatalf("%s: status %d", plans[i], code)
			}
			got[i] = bodyHash(body)
		}
		ref, err := facts.Open(lake.Dir(), e.w.Config.Scope())
		if err != nil {
			t.Fatal(err)
		}
		want := make([]uint64, len(plans))
		if err := referencePlans(query.New(ref), plans, want); err != nil {
			t.Fatal(err)
		}
		if checked, bad := mismatches(got, want); checked != int64(len(plans)) || len(bad) != 0 {
			t.Fatalf("true reference: checked %d, mismatched %v", checked, bad)
		}
		want[17]++
		if _, bad := mismatches(got, want); len(bad) != 1 || bad[0] != 17 {
			t.Fatalf("corrupted reference: mismatched %v, want [17]", bad)
		}
	})

	t.Run("dns", func(t *testing.T) {
		month := e.w.DefaultDNSMonth()
		var probes []int
		for _, p := range e.w.Fleet.ActiveAt(month) {
			probes = append(probes, p.ID)
		}
		pool, err := dnsQueries(3, probes)
		if err != nil {
			t.Fatal(err)
		}
		server, ref := dnsplane.NewResolver(e.w, month), dnsplane.NewResolver(e.w, month)
		for i, pkt := range pool[:256] {
			sent := append([]byte(nil), pkt...)
			sent[0], sent[1] = 0xbe, 0xef // the wire ID differs from the pool's
			got, _ := server.Handle(sent, nil)
			want, _ := ref.Handle(pkt, nil)
			if !sameAnswer(got, want) {
				t.Fatalf("packet %d: true reference rejected", i)
			}
			if sameAnswer(got, flip(want, len(want)-1)) {
				t.Fatalf("packet %d: corrupted reference accepted", i)
			}
		}
	})

	t.Run("whatif", func(t *testing.T) {
		b := &bench{dir: t.TempDir(), spans: newRecorder()}
		prep := b.path("prep-store")
		if err := populateStore(e, prep); err != nil {
			t.Fatal(err)
		}
		req := whatifRequests(11)[0]
		boards := make([][]byte, 2)
		for i := range boards { // two independent stores, one request
			b.dir = t.TempDir()
			ref, err := newSweepRef(b, e, prep)
			if err != nil {
				t.Fatal(err)
			}
			boards[i], err = ref.runSweep(req)
			ref.close()
			if err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(boards[0], boards[1]) {
			t.Fatal("true reference rejected")
		}
		if bytes.Equal(boards[0], flip(boards[1], len(boards[1])/2)) {
			t.Fatal("corrupted reference accepted")
		}
	})
}

// TestInputsAreSeeded pins that one seed always generates the same
// inputs and another seed different ones.
func TestInputsAreSeeded(t *testing.T) {
	a, b, c := figureInputs(1, 512, 44), figureInputs(1, 512, 44), figureInputs(2, 512, 44)
	same, diff := true, false
	for i := range a {
		same = same && a[i] == b[i]
		diff = diff || a[i] != c[i]
	}
	if !same || !diff {
		t.Fatalf("figure inputs: same seed equal %v, other seed differs %v", same, diff)
	}
	r1, r2 := whatifRequests(5), whatifRequests(5)
	for i := range r1 {
		if r1[i].From != r2[i].From || r1[i].Letters[0] != r2[i].Letters[0] {
			t.Fatalf("sweep request %d differs across identical seeds", i)
		}
	}
}
