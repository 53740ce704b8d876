package cows_test

import (
	"testing"

	"repro/internal/cows"
	"repro/internal/encode"
	"repro/internal/hospital"
)

// BenchmarkParse parses the encoded treatment process, a 2.5 KB term:
// the size of the state terms a monitor checkpoint carries.
func BenchmarkParse(b *testing.B) {
	p, err := hospital.Treatment()
	if err != nil {
		b.Fatal(err)
	}
	s, err := encode.Encode(p)
	if err != nil {
		b.Fatal(err)
	}
	src := cows.String(s)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cows.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}
