package trace_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"testing"

	"mcbench/internal/bench"
	"mcbench/internal/trace"
)

// The sha256 of WriteTo for every suite trace and for the whole
// scaled:64:7 population, each at 20 000 µops, as produced by the unpacked
// 32-byte Op. Packing the op must change no byte of any trace.
var suiteDigests = map[string]string{
	"astar":      "adaa262d968853dec193082499e90472f83888de98ffc9cd930432edb187a69d",
	"bwaves":     "2538a5e150976bcdbe1881e027bceabdb246763268eaf7bdb82ea67658a8e233",
	"bzip2":      "0ede0ce09f097cd96ab7978e034ec1117391c50702aaae742dd714ea1a9dd42a",
	"cactusADM":  "a5dddd91ae5e69e5acbb5c5d10b52ec22fc7fb475185a193f6f57bc6062ecd5c",
	"calculix":   "5b2e5ecc39ad5c9d0085815a3672cafa173e858516801d4860ac47165cadf216",
	"dealII":     "8e944bd5b7c6d844767604c09d157ffd46f5c4213dd0093e783282bd206c4fea",
	"gcc":        "d33dee8d2dba8fa37b1fff38d425397486303004275b8d195414b499b4297537",
	"gobmk":      "77180108ca5065f074a8ea6cbc569a422484dfe6055c76e7dc2d2ea0bfa3c721",
	"gromacs":    "5ca9f1eda520ca30d0df36a492ad75b601ec1e55aba6ba8c7d1f06517d19088e",
	"h264ref":    "f6c021a05bcb2444ea82f29885f7ac2d2892bcc2de20ddbcce951d061707e22e",
	"hmmer":      "96a8ea8cd9cead5ebed5ddf32cec466c01eee3e235f341356cb7dec5ab6b99bb",
	"leslie3d":   "434c5f8a691d773780245d4bcb19320f432a12f38354cc5c752e242cf7fe1519",
	"libquantum": "dbc5475486d59e1cd0164d2d4a532569da40a8afe26b3e7a4ea0293fa3536f84",
	"mcf":        "03e72cbf6adbf901cce720194870e3c332be1641aaefab066c5b53d45b25de45",
	"milc":       "51751bde380ace1975b89964027fb97c6cff47aa739d03948789f3f905d33846",
	"namd":       "1281dd61c45341a6b81dc46c4079fe7e3163c47eefdabb715b08ae425f1de0df",
	"omnetpp":    "e9ef0ce946e8a0f1b150669a87b78943be71df1944b32f1e5b8e1a2b93966312",
	"perlbench":  "a245fb8d3089d474975f7d31cdb1f5f6a6710bb406890ddbf2f00f5910b6d432",
	"povray":     "1c0d64a2bf07063831fe61f245a517d27f5ee7bc134ca51a03e991201408989f",
	"sjeng":      "dbe61026807d3c2a76bf53666fe3d13c6670f4d92e94b199108e421af4658ed1",
	"soplex":     "5189e56865c50bbc839a9500921cf5aeced2d83ea0f94c363f29432898cb0cdc",
	"zeusmp":     "912653ea1075853ec2d8c18857b6cd58a1067565f291dbfdde754259eb5e183d",
}

const scaledDigest = "a6bff09f4fd5ca016607253f81a9bb64206c6d6be97f4671eb1fa7b400c891ce"

func TestTraceBytesPinned(t *testing.T) {
	const n = 20000
	write := func(h hash.Hash, tr *trace.Trace) {
		if _, err := tr.WriteTo(h); err != nil {
			t.Fatal(err)
		}
	}
	names := trace.SortedNames()
	if len(names) != len(suiteDigests) {
		t.Fatalf("suite has %d benchmarks, %d digests pinned", len(names), len(suiteDigests))
	}
	for _, name := range names {
		p, _ := trace.ByName(name)
		h := sha256.New()
		write(h, trace.MustGenerate(p, n))
		if got := hex.EncodeToString(h.Sum(nil)); got != suiteDigests[name] {
			t.Errorf("%s: trace digest %s, pinned %s", name, got, suiteDigests[name])
		}
	}

	src, err := bench.Parse("scaled:64:7")
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, name := range src.Names() {
		tr, err := src.Trace(context.Background(), name, n)
		if err != nil {
			t.Fatal(err)
		}
		write(h, tr)
		src.Release(name)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != scaledDigest {
		t.Errorf("scaled:64:7: population digest %s, pinned %s", got, scaledDigest)
	}
}
