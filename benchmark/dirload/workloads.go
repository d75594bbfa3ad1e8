package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/ldif"
	"repro/internal/model"
	"repro/internal/workload"
)

// spec is one benchmark workload: the dirserve command line, the
// matching in-process generator and options, and the request stream.
// ../README.md records why each was chosen and why the server flags
// are what they are.
type spec struct {
	name  string
	gen   string   // dirserve -gen
	n     int      // dirserve -n
	flags []string // every other server flag that shapes the workload
	// opts are the core.Options the flags above select, for the
	// in-process reference and the traced pass.
	opts core.Options
	// durable servers get -data <fresh dir> -mutable and take writes.
	durable bool
	// starts is how many cold starts the median setup_s is taken over.
	starts int
	// tracedReads and tracedWrites size the in-process traced pass; only a
	// durable spec has writes to trace.
	tracedReads, tracedWrites int
}

const (
	// readRate is provision's open-loop read schedule, requests per second.
	readRate = 500
	// warmSeconds of load precede every measured window.
	warmSeconds = 2
)

var specs = []*spec{
	{
		name: "lookup", gen: "tops", n: 2000, flags: []string{"-flight", "0"},
		starts: 3, tracedReads: 2000,
	},
	{
		name: "analytic", gen: "forest", n: 3000,
		starts: 5, tracedReads: 36,
	},
	{
		name: "policy", gen: "qos", n: 2000, flags: []string{"-cache", "3000000", "-flight", "0"},
		opts:   core.Options{CacheBytes: 3000000},
		starts: 5, tracedReads: 1000,
	},
	{
		name: "provision", gen: "tops", n: 500,
		flags:   []string{"-mutable", "-checkpoint-every", "0", "-delta-checkpoints"},
		opts:    core.Options{DeltaCheckpoints: true},
		durable: true,
		starts:  5, tracedReads: 1000, tracedWrites: 60,
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// scaled returns a copy of s shrunk for -smoke: a small directory, one
// cold start, a short traced pass. Goldens do not apply to it.
func (s *spec) scaled() *spec {
	c := *s
	c.n = map[string]int{"tops": 120, "forest": 300, "qos": 200}[s.gen]
	c.starts = 1
	c.tracedReads = min(s.tracedReads, 60)
	if s.name == "analytic" {
		c.tracedReads = 12
	}
	c.tracedWrites = min(s.tracedWrites, 6)
	return &c
}

// serverArgs is the dirserve command line for one seed; dataDir is used
// by durable specs only.
func (s *spec) serverArgs(seed int64, dataDir string) []string {
	args := []string{"-gen", s.gen, "-n", fmt.Sprint(s.n), "-seed", fmt.Sprint(seed)}
	args = append(args, s.flags...)
	if s.durable {
		args = append(args, "-data", dataDir)
	}
	return args
}

// instance generates the directory exactly as `dirserve -gen` does for
// the same -n and -seed (cmd/dirserve/main.go).
func (s *spec) instance(seed int64) *model.Instance {
	switch s.gen {
	case "forest":
		return workload.RandomForest(workload.ForestConfig{N: s.n, Seed: seed})
	case "qos":
		return workload.GenQoS(workload.QoSConfig{Domains: 1 + s.n/50, PoliciesPerDomain: 50, Seed: seed})
	case "tops":
		return workload.GenTOPS(workload.TOPSConfig{Subscribers: s.n, Seed: seed})
	}
	panic("unknown generator " + s.gen)
}

const topsBase = "ou=userProfiles, dc=research, dc=att, dc=com"

// analyticQueries are the nine queries of bench.OperatorProfile plus an
// intersection, a descendant selection and a simple aggregate, so every
// plan operator of L0-L3 runs over the whole forest.
var analyticQueries = []string{
	`( ? sub ? tag=a)`,
	`(- ( ? sub ? tag=a) ( ? sub ? val<2))`,
	`(p ( ? sub ? tag=a) ( ? sub ? tag=b))`,
	`(a ( ? sub ? tag=a) ( ? sub ? tag=b))`,
	`(ac ( ? sub ? tag=a) ( ? sub ? tag=b) ( ? sub ? tag=c))`,
	`(c (& ( ? sub ? tag=a) ( ? sub ? val<5)) (| ( ? sub ? tag=b) ( ? sub ? tag=c)) count($2) > 0)`,
	`(dc (& ( ? sub ? tag=a) ( ? sub ? tag=a)) (d ( ? sub ? tag=b) ( ? sub ? val>=1)) ( ? sub ? tag=c) count($2) >= 1)`,
	`(vd (g ( ? sub ? tag=a) count(ref) >= 1) (d ( ? sub ? tag=b) ( ? sub ? val<6)) ref)`,
	`(dv ( ? sub ? tag=a) ( ? sub ? tag=b) ref count($2) >= 1)`,
	`(& ( ? sub ? tag=a) ( ? sub ? val<5))`,
	`(d ( ? sub ? tag=a) ( ? sub ? tag=b))`,
	`(g ( ? sub ? tag=a) count(ref) >= 1)`,
}

// qosClasses are the four candidate sets apps/qos.Match reads.
var qosClasses = []string{"SLAPolicyRules", "trafficProfile", "policyValidityPeriod", "SLADSAction"}

const (
	topsTemplates = 3
	qosTemplates  = 6
)

// writeRegion is the share of tops subscribers provision's writer
// mutates; its reads draw from the rest, so every read has one correct
// answer whatever generation it ran against.
func (s *spec) writeRegion() int {
	if !s.durable {
		return 0
	}
	return s.n / 4
}

// keys is the number of Zipf-ranked keys the read stream draws from.
func (s *spec) keys() int {
	switch s.gen {
	case "tops":
		return s.n - s.writeRegion()
	case "qos":
		return 1 + s.n/50
	}
	return 0
}

// pool lists every distinct read query of the workload; a stream yields
// indices into it, and the oracle answers each once.
func (s *spec) pool() []string {
	switch s.gen {
	case "forest":
		return analyticQueries
	case "tops":
		// The request mix of apps/tops.Lookup: subscriber by uid, the
		// subscriber's QHPs, the call appearances of its first QHP.
		k := s.keys()
		out := make([]string, topsTemplates*k)
		for sub := 0; sub < k; sub++ {
			uid := fmt.Sprintf("sub%04d", sub)
			out[0*k+sub] = fmt.Sprintf("(%s ? one ? uid=%s)", topsBase, uid)
			out[1*k+sub] = fmt.Sprintf("(uid=%s, %s ? one ? objectClass=QHP)", uid, topsBase)
			out[2*k+sub] = fmt.Sprintf("(QHPName=qhp0, uid=%s, %s ? one ? objectClass=callAppearance)", uid, topsBase)
		}
		return out
	case "qos":
		k := s.keys()
		out := make([]string, 0, qosTemplates*k)
		for d := 0; d < k; d++ {
			dom := fmt.Sprintf("dc=dom%d, dc=att, dc=com", d)
			for _, c := range qosClasses {
				out = append(out, fmt.Sprintf("(%s ? sub ? objectClass=%s)", dom, c))
			}
			policies := fmt.Sprintf("(%s ? sub ? objectClass=SLAPolicyRules)", dom)
			out = append(out,
				fmt.Sprintf("(vd %s (%s ? sub ? DSPermission=Deny) SLADSActRef)", policies, dom),
				fmt.Sprintf("(g %s count(SLATPRef) >= 2)", policies))
		}
		return out
	}
	panic("unknown generator " + s.gen)
}

// stream is one connection's seeded request stream: the same
// (spec, seed, conn) always yields the same sequence of pool indices.
type stream struct {
	s    *spec
	r    *rand.Rand
	z    *rand.Zipf
	perm []int // Zipf rank → key, so hot keys are not neighbours on disk
	i    int
}

func (s *spec) stream(seed int64, conn int) *stream {
	r := rand.New(rand.NewSource(seed<<8 | int64(conn)))
	st := &stream{s: s, r: r}
	if s.gen == "forest" {
		st.perm = r.Perm(len(analyticQueries))
		return st
	}
	// Every connection ranks keys the same way (one hot set per seed).
	st.perm = rand.New(rand.NewSource(seed)).Perm(s.keys())
	st.z = rand.NewZipf(r, 1.1, 1, uint64(s.keys()-1))
	return st
}

func (st *stream) next() int {
	st.i++
	switch st.s.gen {
	case "forest":
		// Round robin, in this connection's own order.
		return st.perm[(st.i-1)%len(st.perm)]
	case "tops":
		key := st.perm[st.z.Uint64()]
		t := 2
		if u := st.r.Float64(); u < 0.5 {
			t = 0
		} else if u < 0.8 {
			t = 1
		}
		return t*st.s.keys() + key
	default: // qos
		key := st.perm[st.z.Uint64()]
		t := 5
		if u := st.r.Float64(); u < 0.8 {
			t = int(u / 0.2)
		} else if u < 0.9 {
			t = 4
		}
		return key*qosTemplates + t
	}
}

// writeOp is one mutation request as it goes on the wire.
type writeOp struct {
	kind  string       // "add" or "del"
	text  string       // LDIF block for add, DN for del
	entry *model.Entry // the entry added or removed
}

// writeStream yields provision's add, add, del triples: two new call
// appearances under the first QHP of a seeded write-region subscriber,
// then the first of them removed again, so the directory and the store's
// overlay grow by one entry per triple.
type writeStream struct {
	s       *spec
	schema  *model.Schema
	r       *rand.Rand
	i       int
	pending *model.Entry
	adds    []*model.Entry
}

// written lists every entry the stream has added so far, including the
// ones it removed again.
func (ws *writeStream) written() []*model.Entry { return ws.adds }

func (s *spec) writeStream(seed int64, in *model.Instance) *writeStream {
	return &writeStream{s: s, schema: in.Schema(), r: rand.New(rand.NewSource(seed<<8 | 0xff))}
}

func (ws *writeStream) next() writeOp {
	ws.i++
	if ws.i%3 == 0 {
		e := ws.pending
		return writeOp{kind: "del", text: e.DN().String(), entry: e}
	}
	e := ws.newEntry(ws.i)
	ws.adds = append(ws.adds, e)
	if ws.i%3 == 1 {
		ws.pending = e
	}
	return writeOp{kind: "add", text: ldif.MarshalEntry(e), entry: e}
}

// newEntry builds the i-th new call appearance.
func (ws *writeStream) newEntry(i int) *model.Entry {
	sub := ws.s.n - 1 - ws.r.Intn(ws.s.writeRegion())
	dn, err := model.ParseDN(fmt.Sprintf("CANumber=555%07d, QHPName=qhp0, uid=sub%04d, %s", i, sub, topsBase))
	if err != nil {
		panic(err)
	}
	e, err := model.NewEntryFromDN(ws.schema, dn)
	if err != nil {
		panic(err)
	}
	e.AddClass("callAppearance")
	for _, av := range [][2]string{{"priority", "9"}, {"timeOut", "30"}} {
		t, _ := ws.schema.AttrType(av[0])
		v, err := model.ParseValue(t, av[1])
		if err != nil {
			panic(err)
		}
		e.Add(av[0], v)
	}
	return e
}
