package profiledata

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"drbw/internal/alloc"
	"drbw/internal/cache"
	"drbw/internal/pebs"
)

func sampleFixture() []pebs.Sample {
	return []pebs.Sample{
		{Time: 1000, CPU: 3, Thread: 1, Addr: 0x10000000, Level: cache.MEM, Latency: 612, Write: false, SrcNode: 1, HomeNode: 0},
		{Time: 2000, CPU: 17, Thread: 9, Addr: 0x10200040, Level: cache.L1, Latency: 4, Write: true, SrcNode: 2, HomeNode: 2},
		{Time: 3000, CPU: 0, Thread: 0, Addr: 0x10400080, Level: cache.LFB, Latency: 130, Write: false, SrcNode: 0, HomeNode: 3},
	}
}

func TestSampleRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := sampleFixture()
	if err := WriteSamples(&buf, in, 3.5); err != nil {
		t.Fatal(err)
	}
	out, weight, err := ReadSamples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if weight != 3.5 {
		t.Errorf("weight round trip 3.5 -> %v", weight)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip %d -> %d samples", len(in), len(out))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("sample %d changed: %+v -> %+v", i, in[i], out[i])
		}
	}
}

func TestSampleCSVShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSamples(&buf, sampleFixture(), 1); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("%d lines", len(lines))
	}
	if lines[0] != "#drbw-samples,v2,weight,1" {
		t.Errorf("meta row: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "time,cpu,thread,addr,level") {
		t.Errorf("header: %s", lines[1])
	}
	if !strings.Contains(lines[2], "0x10000000") || !strings.Contains(lines[2], "MEM") {
		t.Errorf("row: %s", lines[2])
	}
}

// Recordings from before the meta row (v1) start directly with the header
// and must still read, with weight 1.
func TestReadSamplesV1Compat(t *testing.T) {
	body := "time,cpu,thread,addr,level,latency,write,src_node,home_node\n" +
		"1000,3,1,0x10000000,MEM,612,false,1,0\n"
	out, weight, err := ReadSamples(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if weight != 1 {
		t.Errorf("v1 weight = %v, want 1", weight)
	}
	if len(out) != 1 || out[0].Addr != 0x10000000 {
		t.Errorf("v1 samples: %+v", out)
	}
}

// A non-positive weight never reaches disk: it would corrupt every count
// feature on reload, so WriteSamples clamps it to 1.
func TestWriteSamplesClampsWeight(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSamples(&buf, sampleFixture(), 0); err != nil {
		t.Fatal(err)
	}
	_, weight, err := ReadSamples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if weight != 1 {
		t.Errorf("weight 0 wrote back as %v, want 1", weight)
	}
}

func TestReadSamplesErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"wrong header": "a,b,c,d,e,f,g,h,i\n",
		"bad level":    "time,cpu,thread,addr,level,latency,write,src_node,home_node\n1,2,3,0x10,L9,5,false,0,0\n",
		"bad addr":     "time,cpu,thread,addr,level,latency,write,src_node,home_node\n1,2,3,zz,L1,5,false,0,0\n",
		"bad bool":     "time,cpu,thread,addr,level,latency,write,src_node,home_node\n1,2,3,0x10,L1,5,maybe,0,0\n",
		"short row":    "time,cpu,thread,addr,level,latency,write,src_node,home_node\n1,2,3\n",
		"short meta":   "#drbw-samples,v2\ntime,cpu,thread,addr,level,latency,write,src_node,home_node\n",
		"bad version":  "#drbw-samples,v9,weight,1\ntime,cpu,thread,addr,level,latency,write,src_node,home_node\n",
		"bad weight":   "#drbw-samples,v2,weight,zero\ntime,cpu,thread,addr,level,latency,write,src_node,home_node\n",
		"zero weight":  "#drbw-samples,v2,weight,0\ntime,cpu,thread,addr,level,latency,write,src_node,home_node\n",
		"meta only":    "#drbw-samples,v2,weight,2\n",
	}
	for name, body := range cases {
		if _, _, err := ReadSamples(strings.NewReader(body)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func objectFixture() []alloc.Object {
	return []alloc.Object{
		{ID: 0, Name: "block", Site: alloc.Site{Func: "main", File: "sc.cpp", Line: 1838}, Base: 0x10000000, Size: 1 << 20},
		{ID: 1, Name: "point.p", Site: alloc.Site{Func: "read", File: "sc.cpp", Line: 1120}, Base: 0x10200000, Size: 4096},
		{ID: 2, Name: "freed", Freed: true, Base: 0x10300000, Size: 4096},
	}
}

func TestObjectRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteObjects(&buf, objectFixture()); err != nil {
		t.Fatal(err)
	}
	out, err := ReadObjects(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("round trip kept %d objects, want 2 (freed skipped)", len(out))
	}
	if out[0].Name != "block" || out[0].Base != 0x10000000 || out[0].Site.Line != 1838 {
		t.Errorf("object 0 changed: %+v", out[0])
	}
}

func TestReadObjectsErrors(t *testing.T) {
	const header = "id,name,func,file,line,base,size\n"
	const ok = "0,a,f,x.c,1,0x10,16\n"
	cases := map[string]struct{ body, want string }{
		"wrong header": {"x,y,z,a,b,c,d\n", "header"},
		"zero size":    {header + "0,a,f,x.c,1,0x10,0\n", "line 2"},
		"bad base":     {header + "0,a,f,x.c,1,zz,10\n", "line 2"},
		// base+size wraps: the end would compare below the base in every
		// overlap and lookup check.
		"wraps past 2^64": {header + ok + "1,b,f,x.c,1,0xfffffffffffffff0,4096\n", "line 3"},
		"ends at 2^64":    {header + ok + "1,b,f,x.c,1,0xffffffffffffff00,256\n", "line 3"},
		"max size wraps":  {header + "1,b,f,x.c,1,0x1,18446744073709551615\n", "line 2"},
	}
	for name, tc := range cases {
		_, err := ReadObjects(strings.NewReader(tc.body))
		if err == nil {
			t.Errorf("%s accepted", name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", name, err, tc.want)
		}
	}
	// The last byte below 2^64 is a valid end.
	out, err := ReadObjects(strings.NewReader(header + "1,b,f,x.c,1,0xffffffffffffff00,255\n"))
	if err != nil || len(out) != 1 {
		t.Fatalf("object ending at 2^64-1: %v, %v", out, err)
	}
}

func TestTableAttribution(t *testing.T) {
	tb, err := NewTable(objectFixture()[:2])
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 2 {
		t.Fatalf("table len %d", tb.Len())
	}
	id, ok := tb.Lookup(0x10000000 + 512)
	if !ok || id != 0 {
		t.Errorf("lookup inside block = %d,%v", id, ok)
	}
	if tb.Object(id).Name != "block" {
		t.Errorf("object name %q", tb.Object(id).Name)
	}
	if _, ok := tb.Lookup(0x10000000 + 1<<20); ok {
		t.Error("lookup past block end hit")
	}
	if _, ok := tb.Lookup(0x1); ok {
		t.Error("lookup below table hit")
	}
	if id, ok := tb.Lookup(0x10200000); !ok || id != 1 {
		t.Errorf("lookup point.p = %d,%v", id, ok)
	}
}

func TestTableValidation(t *testing.T) {
	overlap := []alloc.Object{
		{ID: 0, Name: "a", Base: 0x1000, Size: 0x2000},
		{ID: 1, Name: "b", Base: 0x2000, Size: 0x1000},
	}
	if _, err := NewTable(overlap); err == nil {
		t.Error("overlapping ranges accepted")
	}
	dup := []alloc.Object{
		{ID: 0, Name: "a", Base: 0x1000, Size: 0x100},
		{ID: 0, Name: "b", Base: 0x2000, Size: 0x100},
	}
	if _, err := NewTable(dup); err == nil {
		t.Error("duplicate IDs accepted")
	}
}

// Property: any sample list round-trips byte-identically on the fields the
// analysis consumes.
func TestSampleRoundTripProperty(t *testing.T) {
	f := func(addrs []uint32, lvl uint8) bool {
		var in []pebs.Sample
		for i, a := range addrs {
			if i >= 16 {
				break
			}
			in = append(in, pebs.Sample{
				Time: float64(i * 100), CPU: 1, Thread: i,
				Addr:  uint64(a),
				Level: cache.Level(int(lvl) % 5), Latency: float64(a%1000) + 3,
				SrcNode: 0, HomeNode: 1,
			})
		}
		var buf bytes.Buffer
		if err := WriteSamples(&buf, in, 2); err != nil {
			return false
		}
		out, weight, err := ReadSamples(&buf)
		if err != nil || weight != 2 {
			return false
		}
		if len(out) != len(in) {
			return false
		}
		for i := range in {
			if in[i].Addr != out[i].Addr || in[i].Level != out[i].Level {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
