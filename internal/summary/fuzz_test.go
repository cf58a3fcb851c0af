package summary

import (
	"bytes"
	"testing"
)

// FuzzDecode throws arbitrary bytes at the codec: Decode must reject or
// accept without panicking, and anything it accepts must re-encode
// byte-identically (the codec is canonical — Decode rejects non-minimal
// varints, unsorted histogram keys, and non-zero reserved bytes
// precisely so this property holds), into a buffer encodedLen sized
// exactly.
func FuzzDecode(f *testing.F) {
	seed := testSummary(f, []string{"red", "blue"}, []struct {
		X float64
		C string
	}{{1, "red"}, {2, "red"}, {30, "blue"}},
		func(i int) int {
			if i < 2 {
				return 0
			}
			return 1
		}, 2)
	valid, err := Encode(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("ACFS"))
	f.Add(valid[:len(valid)/2])
	f.Add(append([]byte(nil), valid[:len(valid)-2]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		out, err := Encode(s)
		if err != nil {
			t.Fatalf("decoded summary fails to re-encode: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatal("accepted input is not canonical: re-encoding differs")
		}
		if cap(out) != len(out) {
			t.Fatalf("Encode's buffer has capacity %d for %d bytes; encodedLen is off", cap(out), len(out))
		}
	})
}
