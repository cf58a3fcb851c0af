package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/relation"
	"repro/internal/server"
	"repro/pkg/client"
)

func TestDocStreamDeterministic(t *testing.T) {
	u, err := newUniverse()
	if err != nil {
		t.Fatal(err)
	}
	draw := func(seed int64) []int {
		s := newDocStream(u, seed)
		out := make([]int, 200)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverges at draw %d", i)
		}
		if a[i] < 0 || a[i] >= len(u.docs) {
			t.Fatalf("draw %d outside the universe", a[i])
		}
	}
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds draw the same documents")
	}
	// The hot set is fixed: universes built twice agree document for
	// document.
	v, _ := newUniverse()
	for i := range u.bodies {
		if !bytes.Equal(u.bodies[i], v.bodies[i]) {
			t.Fatalf("universe order differs at %d", i)
		}
	}
}

// TestUniverseMatchesServer sends every option document to an
// in-process dard and checks the answer against the benchmark's own
// reference, so the benchmark and the server read each document alike.
func TestUniverseMatchesServer(t *testing.T) {
	u, err := newUniverse()
	if err != nil {
		t.Fatal(err)
	}
	csv, err := wbcdCSV(1500, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv, _, err := server.New(server.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.Ingest(ctx, "u", csv, client.IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	sum, _, err := ingestReference(csv, 0, untimed)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range u.docs {
		// Every document costs a Phase II on each side; -short checks a
		// tenth of the shuffled universe, which still spans every axis.
		if testing.Short() && i%10 != 0 {
			continue
		}
		body, _, err := c.QueryJSON(ctx, "u", u.bodies[i])
		if err != nil {
			t.Fatalf("doc %d %s: %v", i, u.bodies[i], err)
		}
		q, err := d.options()
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := renderQuery(sum, q)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stripDurations(body), stripDurations(want)) {
			t.Fatalf("doc %d %s: served body differs from the reference", i, u.bodies[i])
		}
	}
}

func TestRotationMatchesParse(t *testing.T) {
	csv, err := wbcdCSV(50, 4)
	if err != nil {
		t.Fatal(err)
	}
	rows := indexCSV(csv)
	base, err := relation.ReadCSV(bytes.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1, 17, 49} {
		rot := rows.rotated(nil, k)
		if len(rot) != len(csv) {
			t.Fatalf("k=%d: rotated body is %d bytes, want %d", k, len(rot), len(csv))
		}
		got, err := relation.ReadCSV(bytes.NewReader(rot))
		if err != nil {
			t.Fatal(err)
		}
		want := rotatedRelation(base, k)
		for i := 0; i < want.Len(); i++ {
			g, w := got.Tuple(i), want.Tuple(i)
			for j := range w {
				if g[j] != w[j] {
					t.Fatalf("k=%d row %d differs", k, i)
				}
			}
		}
	}
}
