package archtest

import (
	"fmt"
	"go/ast"
	"go/token"
	"path"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// rule is one architecture contract.
type rule struct {
	name string
	why  string // printed when the rule fails
	// check returns every violation as "file:line: what".
	check     func(*tree) []string
	mutations []mutation
}

// mutation is one in-memory breach of a rule.
type mutation struct {
	name  string
	edits []edit
}

// edit changes one file of the tree: with old empty it appends src (to an
// empty file when the tree has none at path), otherwise it replaces the
// first old with src.
type edit struct{ path, old, src string }

// fleetBinaries are the serving plane's programs and their flag caps.
var fleetBinaries = []struct {
	name     string
	maxFlags int
}{{"psml-server", 18}, {"psml-router", 6}, {"psml-dealer", 3}}

var rules = []rule{
	{
		name:  "fleet-links-no-simulator",
		why:   "psml-server, psml-router and psml-dealer are the real serving plane: under every build tag they link none of the paper-figure simulator (simtime, gpu, mpcsim, secureml, bench, profile)",
		check: fleetLinksNoSimulator,
		mutations: []mutation{
			{"fleet-imports-simtime", []edit{{path: "internal/fleet/zz_mutant.go", src: `package fleet

import _ "parsecureml/internal/simtime"
`}}},
			{"windows-only-mpc-file-imports-gpu", []edit{{path: "internal/mpc/zz_mutant_windows.go", src: `//go:build windows

package mpc

import _ "parsecureml/internal/gpu"
`}}},
		},
	},
	{
		name:  "comm-imports-nothing-internal",
		why:   "internal/comm moves opaque frames; it depends on no other package of this module",
		check: commImportsNothingInternal,
		mutations: []mutation{
			{"comm-imports-obs", []edit{{path: "internal/comm/zz_mutant.go", src: `package comm

import _ "parsecureml/internal/obs"
`}}},
		},
	},
	{
		name:  "one-serve-entry-point",
		why:   "internal/mpc serves through ServeClients alone, the entry point psml-server deploys",
		check: oneServeEntryPoint,
		mutations: []mutation{
			{"second-serve-func", []edit{{path: "internal/mpc/zz_mutant.go", src: `package mpc

func ServeInference() error { return nil }
`}}},
			{"entry-point-renamed", []edit{{path: "internal/mpc/serve.go", old: "func ServeClients(", src: "func RunClients("}}},
		},
	},
	{
		name:  "plain-dealer-and-health-hops",
		why:   "the dealer hop and the router health link are frames on a plain connection: no supervised link and no mux under them",
		check: plainDealerAndHealthHops,
		mutations: []mutation{
			{"tripletpool-muxes-the-dealer-hop", []edit{{path: "internal/mpc/tripletpool/zz_mutant.go", src: `package tripletpool

import "parsecureml/internal/comm"

func zzMux(c *comm.Conn) *comm.Mux { return comm.NewMux(c, comm.MuxConfig{}) }
`}}},
			{"tripletpool-supervises-the-dealer-hop", []edit{{path: "internal/mpc/tripletpool/zz_mutant.go", src: `package tripletpool

import "parsecureml/internal/comm"

type zzLink struct{ l *comm.SupervisedLink }
`}}},
			{"fleet-supervises-the-health-link", []edit{{path: "internal/fleet/zz_mutant.go", src: `package fleet

import "parsecureml/internal/comm"

var zzDial = comm.NewSupervisedLink
`}}},
		},
	},
	{
		name:  "first-frame-is-versioned",
		why:   "every hop refuses a peer of another build at its first frame: the readers of the pair hello, the dealer hello, the health JOIN and the request header each refuse a frame whose version is not their package's version constant",
		check: firstFrameIsVersioned,
		mutations: []mutation{
			{"pair-hello-reads-any-version", []edit{{path: "internal/mpc/peer.go",
				old: "\tcase le.Uint32(f[4:]) != helloVersion:\n\t\treturn 0, fmt.Errorf(\"%w: version %d, want %d\", errPairHello, le.Uint32(f[4:]), helloVersion)\n", src: ""}}},
			{"dealer-hello-reads-any-version", []edit{{path: "internal/mpc/tripletpool/proto.go",
				old: "\tif v := binary.LittleEndian.Uint32(f[4:8]); v != dealerProtoVersion {\n\t\treturn 0, 0, fmt.Errorf(\"tripletpool: dealer protocol version %d, want %d\", v, dealerProtoVersion)\n\t}\n", src: ""}}},
			{"join-reads-any-version", []edit{{path: "internal/fleet/health.go",
				old: "\tif v := binary.LittleEndian.Uint32(f[4:8]); v != joinProtoVersion {\n\t\treturn rep, fmt.Errorf(\"fleet: JOIN protocol version %d, want %d\", v, joinProtoVersion)\n\t}\n", src: ""}}},
			{"request-header-reads-any-version", []edit{{path: "internal/mpc/envelope.go",
				old: "\tcase frame[offVersion] != headerVersion:\n\t\treturn h, fmt.Errorf(\"%w: version %d, want %d\", ErrRequestHeader, frame[offVersion], headerVersion)\n", src: ""}}},
			{"pair-hello-version-a-var", []edit{{path: "internal/mpc/peer.go", old: "\thelloVersion = 1\n", src: ""},
				{path: "internal/mpc/peer.go", src: "\nvar helloVersion uint32 = 1\n"}}},
		},
	},
	{
		name:  "one-ticker",
		why:   "comm.Watch's tick loop (keepAlive) is the one tick-and-silence loop under internal/, the supervised peer link's included: a second ticker is a second liveness loop",
		check: oneTicker,
		mutations: []mutation{
			{"ticker-in-the-link", []edit{{path: "internal/comm/supervisor.go", src: `
func (s *SupervisedLink) zzBeat() { t := time.NewTicker(s.cfg.HeartbeatInterval); defer t.Stop() }
`}}},
			{"second-ticker-in-fleet", []edit{{path: "internal/fleet/zz_mutant.go", src: `package fleet

import "time"

func zzBeat() { t := time.NewTicker(time.Second); defer t.Stop() }
`}}},
			{"tick-under-a-renamed-import", []edit{{path: "internal/mpc/zz_mutant.go", src: `package mpc

import clock "time"

var zzTick = clock.Tick(clock.Second)
`}}},
			{"second-ticker-in-watch", []edit{{path: "internal/comm/watch.go", old: "t := time.NewTicker(tick)",
				src: "t := time.NewTicker(tick)\n\t\tt2 := time.NewTicker(tick)\n\t\tdefer t2.Stop()"}}},
			{"watch-loses-its-ticker", []edit{{path: "internal/comm/watch.go", old: "t := time.NewTicker(tick)", src: "t := newTicker(tick)"}}},
		},
	},
	{
		name:  "one-keyed-expansion",
		why:   "a half that is generator output has one expansion: outside internal/rng only mpc.DeriveHalf calls rng.FillKeyed",
		check: oneKeyedExpansion,
		mutations: []mutation{
			{"second-caller-in-tripletpool", []edit{{path: "internal/mpc/tripletpool/zz_mutant.go", src: `package tripletpool

import "parsecureml/internal/rng"

func zzExpand(out []float32, key [16]byte, seq uint64) { rng.FillKeyed(out, key, seq) }
`}}},
			{"second-caller-in-mpc", []edit{{path: "internal/mpc/zz_mutant.go", src: `package mpc

import "parsecureml/internal/rng"

func zzDerive(buf []float32, key [16]byte) { rng.FillKeyed(buf, key, 0) }
`}}},
			{"function-value-in-fleet", []edit{{path: "internal/fleet/zz_mutant.go", src: `package fleet

import "parsecureml/internal/rng"

var zzFill = rng.FillKeyed
`}}},
			{"derive-half-expands-on-its-own", []edit{{path: "internal/mpc/offline.go", old: "rng.FillKeyed(out.T.U.Data, d.Seed, seq, run[:n]...)", src: "fillOwn(out.T.U.Data, d.Seed, seq, run[:n]...)"}}},
		},
	},
	{
		name:  "keyed-fill-is-a-cipher",
		why:   "rng.FillKeyed, the expansion of every derived half, is AES-128-CTR: it lives in internal/rng/keyed.go, which imports crypto/aes and crypto/cipher and names neither mt19937 nor mtStream, the paper's §5.1 generator whose state 624 outputs give away",
		check: keyedFillIsACipher,
		mutations: []mutation{
			{"keyed-fill-calls-mt19937", []edit{
				{path: "internal/rng/keyed.go", old: "\t\"crypto/cipher\"\n", src: "\t\"crypto/cipher\"\n\t\"parsecureml/internal/mt19937\"\n"},
				{path: "internal/rng/keyed.go", src: "\nfunc zzWord(seq uint64) uint32 { var g mt19937.MT19937; g.SeedSlice([]uint32{uint32(seq)}); return g.Uint32() }\n"},
			}},
			{"keyed-fill-draws-a-block-stream", []edit{{path: "internal/rng/keyed.go", src: "\nfunc zzStream(seq uint64) *mtStream { return newBlockStream(seq, 0, 0) }\n"}}},
			{"keyed-fill-drops-aes", []edit{{path: "internal/rng/keyed.go", old: "\t\"crypto/aes\"\n", src: ""}}},
			{"keyed-fill-moves-out", []edit{
				{path: "internal/rng/keyed.go", old: "func FillKeyed(", src: "func fillKeyedAES("},
				{path: "internal/rng/rng.go", src: "\nfunc FillKeyed(out []float32, key [16]byte, seq uint64, more ...[]float32) { fillKeyedAES(out, key, seq, more...) }\n"},
			}},
		},
	},
	{
		name:  "one-gemm-strip",
		why:   "the GEMM has one assembly strip, the FMA one; the multiply-then-add strip it replaced bit for bit is not kept beside it",
		check: oneGemmStrip,
		mutations: []mutation{
			{"second-strip", []edit{{path: "internal/tensor/zz_mutant_amd64.s", src: "#include \"textflag.h\"\n\nTEXT ·gemmStripScalar(SB), NOSPLIT, $0-72\n\tRET\n"}}},
			{"unfused-multiply", []edit{{path: "internal/tensor/gemm_amd64.s", src: "\tVMULPD Y0, Y1, Y2\n"}}},
		},
	},
	{
		name:  "one-unsafe-file",
		why:   "the dense codec's bulk copy (internal/tensor/codec_le.go) is the module's only unsafe, test files included",
		check: oneUnsafeFile,
		mutations: []mutation{
			{"test-file-imports-unsafe", []edit{{path: "internal/comm/zz_mutant_test.go", src: `package comm

import "unsafe"

var zzSize = unsafe.Sizeof(0)
`}}},
			{"second-codec-file", []edit{{path: "internal/tensor/zz_mutant.go", src: `package tensor

import "unsafe"

func zzView(f []float32) []byte { return unsafe.Slice((*byte)(unsafe.Pointer(&f[0])), 4*len(f)) }
`}}},
			{"codec-drops-unsafe", []edit{{path: "internal/tensor/codec_le.go", old: "import \"unsafe\"\n", src: ""}}},
		},
	},
	{
		name:  "pooled-frame-buffers",
		why:   "the mux and the supervised link take every frame buffer from the frame pool (GetFrame), so per-frame allocation cannot come back by refactor",
		check: pooledFrameBuffers,
		mutations: []mutation{
			{"mux-makes-uint8", []edit{{path: "internal/comm/mux.go", src: "\nfunc zzScratch(n int) []uint8 { return make([]uint8, n) }\n"}}},
			{"supervisor-makes-bytes", []edit{{path: "internal/comm/supervisor.go", src: "\nvar zzReplay = make([]byte, 0, 64)\n"}}},
		},
	},
	{
		name:  "one-dense-codec",
		why:   "a dense payload goes through putFloat32s/getFloat32s, so codec.go converts no float per element but in its two CSR value loops",
		check: oneDenseCodec,
		mutations: []mutation{
			{"dense-load-loop", []edit{{path: "internal/tensor/codec.go", src: `
func zzLoad(out []float32, b []byte) {
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
}
`}}},
			{"dense-store-loop", []edit{{path: "internal/tensor/codec.go", src: `
func zzStore(b []byte, in []float32) {
	for i, v := range in {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
}
`}}},
		},
	},
	{
		name:  "fp16-through-slice-helpers",
		why:   "an FP16 matrix converts through putFloat16s/getFloat16s/roundFloat16s alone, so the wire codec and internal/gpu take the F16C kernels",
		check: fp16ThroughSliceHelpers,
		mutations: []mutation{
			{"scalar-in-codec", []edit{{path: "internal/tensor/codec.go", src: "\nfunc zzHalf(v float32) uint16 { return float32ToFloat16Bits(v) }\n"}}},
			{"scalar-in-round-matrix", []edit{{path: "internal/tensor/float16.go", src: `
func RoundMatrixFloat16Serial(m *Matrix) {
	for i, v := range m.Data {
		m.Data[i] = roundFloat16(v)
	}
}
`}}},
		},
	},
	{
		name:  "one-cpuid-decision",
		why:   "one CPUID decision picks the kernel tier: useV3 is set at its declaration alone, cpuid is called only from cpu_amd64.go, and no environment variable, flag or build tag in the FP16 and CPU files chooses a path",
		check: oneCPUIDDecision,
		mutations: []mutation{
			{"useV3-reassigned", []edit{{path: "internal/tensor/zz_mutant.go", src: `package tensor

func init() { useV3 = false }
`}}},
			{"useV3-undeclared", []edit{{path: "internal/tensor/cpu_amd64.go", old: "var useV3 = detectV3()", src: "var useV4 = detectV3()"}}},
			{"second-cpuid-caller", []edit{{path: "internal/tensor/float16_amd64.go", src: "\nfunc zzF16C() bool { _, _, c, _ := cpuid(1, 0); return c&(1<<29) != 0 }\n"}}},
			{"build-tag-on-the-cpu-file", []edit{{path: "internal/tensor/cpu_amd64.go", old: "package tensor\n", src: "//go:build !purego\n\npackage tensor\n"}}},
			{"env-knob-in-an-fp16-file", []edit{{path: "internal/tensor/float16_knob.go", src: `package tensor

import "os"

var zzPortable = os.Getenv("PSML_FP16") == "portable"
`}}},
			{"flag-in-an-fp16-file", []edit{{path: "internal/tensor/float16_knob.go", src: `package tensor

import "flag"

var zzPortable = flag.Bool("fp16-portable", false, "")
`}}},
		},
	},
	{
		name:  "deleted-names-stay-deleted",
		why:   "these went with the client-side triplet pool, the dealer's and the health link's supervised links, the one ASK frame, the folded triplet generator, the FMA strip, the peer link's replay, the pair's capability control session with its unversioned hello and the request header's deadline budget with both its shed points; none comes back under its old name",
		check: deletedNamesStayDeleted,
		mutations: []mutation{
			{"accept-wait-back", []edit{{path: "internal/fleet/zz_mutant.go", src: `package fleet

import "time"

type zzHealth struct{ AcceptWait time.Duration }
`}}},
			{"test-names-allow-peer-restart", []edit{{path: "internal/comm/zz_mutant_test.go", src: `package comm

var zzCfg = SupervisorConfig{AllowPeerRestart: true}
`}}},
			{"resync-timeout-back", []edit{{path: "internal/comm/zz_mutant.go", src: `package comm

import "time"

type zzLinkConfig struct{ ResyncTimeout time.Duration }
`}}},
			{"tripletpool-new-referenced", []edit{{path: "cmd/psml-server/zz_mutant.go", src: `package main

import "parsecureml/internal/mpc/tripletpool"

var zzPool = tripletpool.New
`}}},
			{"capability-frame-back", []edit{{path: "internal/comm/zz_mutant.go", src: `package comm

type CapabilityFrame struct{ Version byte }
`}}},
			{"avx2-strip-named-in-assembly", []edit{{path: "internal/tensor/gemm_amd64.s", src: "// gemmStripAVX2 lives on below.\n"}}},
			{"budget-rewritten-at-the-relay", []edit{{path: "internal/fleet/router.go", old: "\tcfg := s.r.cfg\n", src: "\tcfg := s.r.cfg\n\tmpc.SetBudget(frame, cfg.BackendTimeout)\n"}}},
		},
	},
	{
		name:  "router-reads-only-the-id",
		why:   "the router relays a request by the id in its first 8 bytes and reads nothing else of it: non-test internal/fleet code selects nothing from mpc but RouteError, EncodeRouteError and the RouteErrorCode constants, so the request header is mpc's alone",
		check: routerReadsOnlyTheID,
		mutations: []mutation{
			{"fleet-prices-a-request", []edit{{path: "internal/fleet/zz_mutant.go", src: `package fleet

import "parsecureml/internal/mpc"

func zzFloor(m, k, n int) bool { return mpc.DeadlineEstimate(m, k, n) > 0 }
`}}},
			{"relay-decodes-the-request", []edit{{path: "internal/fleet/router.go", old: "\tcfg := s.r.cfg\n", src: "\tcfg := s.r.cfg\n\tmpc.DecodeRouteError(frame)\n"}}},
		},
	},
	{
		name:  "flags-match-readme",
		why:   "each fleet binary defines exactly the flags its README \"Flags\" table lists, and at most 18 / 6 / 3 (psml-server / psml-router / psml-dealer): a new flag needs a row and, past the cap, a deletion; a binary uses package flag only through flag.Parse and the one-value forms (flag.Int, flag.String, …) with a literal name, so no flag escapes the count",
		check: flagsMatchReadme,
		mutations: []mutation{
			{"flag-missing-from-readme", []edit{{path: "README.md", old: "| `-wire-codec` |", src: "| wire-codec |"}}},
			{"readme-row-for-a-removed-flag", []edit{{path: "README.md", old: "| `-listen` | `:9400` |", src: "| `-max-inflight` | `64` | the dealer's window |\n| `-listen` | `:9400` |"}}},
			{"dealer-over-its-cap", []edit{
				{path: "cmd/psml-dealer/zz_mutant.go", src: `package main

import "flag"

var zzWindow = flag.Int("window", 64, "triplets held per stream")
`},
				{path: "README.md", old: "| `-listen` | `:9400` |", src: "| `-window` | `64` | triplets held per stream |\n| `-listen` | `:9400` |"},
			}},
			{"var-form-flag", []edit{{path: "cmd/psml-router/zz_mutant.go", src: `package main

import (
	"flag"
	"time"
)

var zzDrain time.Duration

func init() { flag.DurationVar(&zzDrain, "drain-timeout", 0, "") }
`}}},
			{"flag-on-the-command-line-set", []edit{{path: "cmd/psml-server/zz_mutant.go", src: `package main

import "flag"

var zzWorkers = flag.CommandLine.Int("workers", 2, "")
`}}},
			{"flag-set-in-a-fleet-binary", []edit{{path: "cmd/psml-dealer/zz_mutant.go", src: `package main

import "flag"

var zzFlags = flag.NewFlagSet("dealer", flag.ExitOnError)
`}}},
		},
	},
	{
		name:  "exported-is-used",
		why:   "every exported name under internal/ is used by non-test code outside its own file (cmd/, examples/, benchmark/ and the root package count), or unusedExports gives the one-line reason it is kept; an entry there names a declaration that exists and that nothing uses",
		check: exportedIsUsed,
		mutations: []mutation{
			{"unused-exported-func", []edit{{path: "internal/tensor/zz_mutant.go", src: `package tensor

func ZZUnused() {}
`}}},
			{"exported-func-used-only-in-its-file", []edit{{path: "internal/fleet/zz_mutant.go", src: `package fleet

func ZZHelper() int { return 1 }

func zzCaller() int { return ZZHelper() }
`}}},
			{"unused-exported-method", []edit{{path: "internal/tensor/matrix.go", src: "\nfunc (m *Matrix) ZZTrace() float32 { return 0 }\n"}}},
			{"allowlisted-declaration-deleted", []edit{{path: "internal/tensor/parallel.go", old: "func SetMaxWorkers(", src: "func setMaxWorkers("}}},
			{"allowlisted-name-gains-a-referrer", []edit{{path: "cmd/psml-server/zz_mutant.go", src: `package main

import "parsecureml/internal/comm"

var zzWrap = comm.Wrap
`}}},
		},
	},
	{
		name:  "drills-name-real-tests",
		why:   "every -run pattern in scripts/ci_drills.sh and .github/workflows (but '^$') names tests that exist: each | alternative matches a Test, Fuzz or Benchmark function of the package it runs, so deleting or renaming a drilled test fails here instead of passing silently in CI",
		check: drillsNameRealTests,
		mutations: []mutation{
			{"drilled-test-renamed", []edit{{path: "internal/mpc/tripletpool/derive_test.go", old: "func TestDealerAnswersEachAskAlone(", src: "func TestDealerAnswersEveryAsk("}}},
			{"drill-names-a-missing-test", []edit{{path: "scripts/ci_drills.sh", old: "'TestWatch'", src: "'TestWatch|TestWatchdogGone'"}}},
			{"workflow-gate-names-a-missing-test", []edit{{path: ".github/workflows/ci.yml", old: "-run TestWireAllocsBaseline ", src: "-run TestWireAllocBaseline "}}},
		},
	},
	{
		name:  "flags-and-env-only-in-main",
		why:   "only a package main defines flags and no code under internal/ reads the environment, so every knob of a binary is a flag its README table lists",
		check: flagsAndEnvOnlyInMain,
		mutations: []mutation{
			{"flag-in-a-library", []edit{{path: "internal/mpc/zz_mutant.go", src: `package mpc

import "flag"

var zzChunk = flag.Int("chunk-rows", 0, "")
`}}},
			{"env-in-a-library", []edit{{path: "internal/fleet/zz_mutant.go", src: `package fleet

import "os"

var zzVnodes = os.Getenv("PSML_VNODES")
`}}},
		},
	},
}

// simulator lists the paper-figure simulator's packages under internal/.
var simulator = []string{"simtime", "gpu", "mpcsim", "secureml", "bench", "profile"}

func fleetLinksNoSimulator(tr *tree) []string {
	type dep struct{ pkg, at string }
	deps := map[string][]dep{} // the union over build tags: every non-test file counts
	for _, gf := range tr.files(nonTest) {
		for _, is := range gf.ast.Imports {
			if p := importPath(is); strings.HasPrefix(p, tr.module+"/") {
				deps[gf.pkg] = append(deps[gf.pkg], dep{p, tr.at(is)})
			}
		}
	}
	forbidden := map[string]bool{}
	for _, s := range simulator {
		forbidden[tr.module+"/internal/"+s] = true
	}
	chain := map[string]string{} // how each reached package is reached
	var queue []string
	for _, bin := range fleetBinaries {
		p := tr.module + "/cmd/" + bin.name
		chain[p] = "cmd/" + bin.name
		queue = append(queue, p)
	}
	var out []string
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, d := range deps[p] {
			if _, seen := chain[d.pkg]; seen {
				continue
			}
			chain[d.pkg] = chain[p] + " → " + strings.TrimPrefix(d.pkg, tr.module+"/")
			if forbidden[d.pkg] {
				out = append(out, fmt.Sprintf("%s: %s", d.at, chain[d.pkg]))
				continue
			}
			queue = append(queue, d.pkg)
		}
	}
	return out
}

func commImportsNothingInternal(tr *tree) []string {
	var out []string
	for _, gf := range tr.files(nonTestIn("internal/comm")) {
		for _, is := range gf.ast.Imports {
			if p := importPath(is); strings.HasPrefix(p, tr.module+"/") {
				out = append(out, fmt.Sprintf("%s: internal/comm imports %s", tr.at(is), p))
			}
		}
	}
	return out
}

func oneServeEntryPoint(tr *tree) []string {
	var out []string
	found := false
	for _, gf := range tr.files(nonTestIn("internal/mpc")) {
		for _, d := range gf.ast.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "Serve") {
				continue
			}
			if fn.Name.Name == "ServeClients" {
				found = true
			} else {
				out = append(out, fmt.Sprintf("%s: func %s beside ServeClients", tr.at(fn), fn.Name.Name))
			}
		}
	}
	if !found {
		out = append(out, "internal/mpc/serve.go:1: no func ServeClients")
	}
	return out
}

func plainDealerAndHealthHops(tr *tree) []string {
	var out []string
	newMux := ref{tr.module + "/internal/comm", "NewMux"}
	for _, gf := range tr.files(nonTestIn("internal/mpc/tripletpool", "internal/fleet")) {
		gf.inspect(func(n ast.Node, fn *ast.FuncDecl) {
			switch n := n.(type) {
			case *ast.Ident:
				if n.Name == "SupervisedLink" || n.Name == "NewSupervisedLink" {
					out = append(out, fmt.Sprintf("%s: %s in %s of %s", tr.at(n), n.Name, where(fn), gf.dir))
				}
			case *ast.SelectorExpr:
				if gf.dir == "internal/mpc/tripletpool" && gf.ref(n) == newMux {
					out = append(out, fmt.Sprintf("%s: comm.NewMux in %s of %s", tr.at(n), where(fn), gf.dir))
				}
			}
		})
	}
	return out
}

// versionedReaders are the readers of each hop's first frame, and the
// version constant each holds the frame to.
var versionedReaders = []struct{ file, fn, version string }{
	{"internal/mpc/peer.go", "readPairHello", "helloVersion"},
	{"internal/mpc/tripletpool/proto.go", "decodeDealerHello", "dealerProtoVersion"},
	{"internal/fleet/health.go", "decodeJoin", "joinProtoVersion"},
	{"internal/mpc/envelope.go", "readHeader", "headerVersion"},
}

func firstFrameIsVersioned(tr *tree) []string {
	var out []string
	for _, r := range versionedReaders {
		gf := tr.gofs[r.file]
		if gf == nil {
			out = append(out, fmt.Sprintf("%s:1: missing, so %s has moved or gone", r.file, r.fn))
			continue
		}
		var reader *ast.FuncDecl
		for _, d := range gf.ast.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && isFunc(fn, r.fn) {
				reader = fn
			}
		}
		switch {
		case reader == nil:
			out = append(out, fmt.Sprintf("%s: declares no func %s", tr.at(gf.ast.Name), r.fn))
		case !declaresConst(tr, gf.dir, r.version):
			out = append(out, fmt.Sprintf("%s: %s is not a constant of %s", tr.at(reader), r.version, gf.dir))
		case !refusesOtherVersion(reader, r.version):
			out = append(out, fmt.Sprintf("%s: %s has no branch that refuses a version other than %s", tr.at(reader), r.fn, r.version))
		}
	}
	return out
}

// declaresConst reports whether a non-test file of dir declares name const.
func declaresConst(tr *tree, dir, name string) bool {
	for _, gf := range tr.files(nonTestIn(dir)) {
		for _, d := range gf.ast.Decls {
			if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.CONST {
				for _, spec := range gd.Specs {
					if slices.ContainsFunc(spec.(*ast.ValueSpec).Names, func(id *ast.Ident) bool { return id.Name == name }) {
						return true
					}
				}
			}
		}
	}
	return false
}

// refusesOtherVersion reports whether fn has an if or a switch case taken
// when something != version, whose branch returns an error: a last result
// that is not nil.
func refusesOtherVersion(fn *ast.FuncDecl, version string) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		var cond ast.Expr
		var body []ast.Stmt
		switch n := n.(type) {
		case *ast.IfStmt:
			cond, body = n.Cond, n.Body.List
		case *ast.CaseClause:
			if len(n.List) == 1 {
				cond, body = n.List[0], n.Body
			}
		}
		if cond != nil && len(body) > 0 && comparesNotEqual(cond, version) {
			if ret, ok := body[len(body)-1].(*ast.ReturnStmt); ok && len(ret.Results) > 0 {
				last, isIdent := ret.Results[len(ret.Results)-1].(*ast.Ident)
				found = found || !isIdent || last.Name != "nil"
			}
		}
		return !found
	})
	return found
}

// comparesNotEqual reports whether e holds a != with the identifier name on
// one side.
func comparesNotEqual(e ast.Expr, name string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok && b.Op == token.NEQ {
			for _, side := range []ast.Expr{b.X, b.Y} {
				if id, ok := side.(*ast.Ident); ok && id.Name == name {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

func oneTicker(tr *tree) []string {
	return onlyFrom(tr, func(gf *goFile) bool {
		return !gf.test && strings.HasPrefix(gf.path, "internal/")
	}, "internal/comm/watch.go", "keepAlive", ref{"time", "NewTicker"}, ref{"time", "Tick"})
}

func oneKeyedExpansion(tr *tree) []string {
	return onlyFrom(tr, func(gf *goFile) bool { return !gf.test && gf.dir != "internal/rng" },
		"internal/mpc/offline.go", "DeriveHalf", ref{tr.module + "/internal/rng", "FillKeyed"})
}

func keyedFillIsACipher(tr *tree) []string {
	const file = "internal/rng/keyed.go"
	gf := tr.gofs[file]
	if gf == nil {
		return []string{file + ":1: missing, so rng.FillKeyed has moved or gone"}
	}
	var out []string
	imported := map[string]bool{}
	for _, is := range gf.ast.Imports {
		imported[importPath(is)] = true
	}
	for _, want := range []string{"crypto/aes", "crypto/cipher"} {
		if !imported[want] {
			out = append(out, fmt.Sprintf("%s: does not import %s", tr.at(gf.ast.Name), want))
		}
	}
	ast.Inspect(gf.ast, func(n ast.Node) bool {
		var name string
		switch n := n.(type) {
		case *ast.Ident:
			name = n.Name
		case *ast.ImportSpec:
			name = importPath(n)
		default:
			return true
		}
		if name == "mtStream" || strings.Contains(strings.ToLower(name), "mt19937") {
			out = append(out, fmt.Sprintf("%s: %s names %s", tr.at(n), path.Base(file), name))
		}
		return true
	})
	declared := false
	for _, f := range tr.files(nonTestIn("internal/rng")) {
		for _, d := range f.ast.Decls {
			fn, ok := d.(*ast.FuncDecl)
			switch {
			case !ok || !isFunc(fn, "FillKeyed"):
			case f == gf:
				declared = true
			default:
				out = append(out, fmt.Sprintf("%s: func FillKeyed outside %s", tr.at(fn), path.Base(file)))
			}
		}
	}
	if !declared {
		out = append(out, fmt.Sprintf("%s: declares no func FillKeyed", tr.at(gf.ast.Name)))
	}
	return out
}

// onlyFrom checks that the files keep accepts reference targets at exactly
// one site, inside the package-level function fn of home's package; home is
// the file fn lives in.
func onlyFrom(tr *tree, keep func(*goFile) bool, home, fn string, targets ...ref) []string {
	var names []string
	for _, t := range targets {
		names = append(names, path.Base(t.pkg)+"."+t.name)
	}
	dir := path.Dir(home)
	owner := path.Base(dir) + "." + fn
	var out []string
	site, decl := "", "" // the one reference, and fn's declaration
	for _, gf := range tr.files(keep) {
		gf.inspect(func(n ast.Node, f *ast.FuncDecl) {
			inFn := gf.dir == dir && isFunc(f, fn)
			if n == f && inFn {
				decl = tr.at(f)
			}
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return
			}
			r := gf.ref(sel)
			if !slices.Contains(targets, r) {
				return
			}
			name := path.Base(r.pkg) + "." + r.name
			switch {
			case !inFn:
				out = append(out, fmt.Sprintf("%s: %s in %s of %s, outside %s", tr.at(sel), name, where(f), gf.dir, owner))
			case site != "":
				out = append(out, fmt.Sprintf("%s: a second %s in %s (the first is at %s)", tr.at(sel), name, owner, site))
			default:
				site = tr.at(sel)
			}
		})
	}
	switch {
	case decl == "":
		out = append(out, fmt.Sprintf("%s:1: no func %s", home, owner))
	case site == "":
		out = append(out, fmt.Sprintf("%s: %s calls no %s", decl, owner, strings.Join(names, " or ")))
	}
	return out
}

func oneGemmStrip(tr *tree) []string {
	var out []string
	first := ""
	tr.lines(func(p string) bool { return path.Dir(p) == "internal/tensor" && strings.HasSuffix(p, ".s") }, func(line, at string) {
		if strings.HasPrefix(line, "TEXT ·gemmStrip") {
			if first != "" {
				out = append(out, fmt.Sprintf("%s: a second assembly GEMM strip (the first is at %s)", at, first))
			} else {
				first = at
			}
		}
		if strings.Contains(line, "VMULPD") {
			out = append(out, at+": VMULPD, the unfused multiply the FMA strip replaced")
		}
	})
	if first == "" {
		out = append(out, "internal/tensor/gemm_amd64.s:1: no TEXT ·gemmStrip routine")
	}
	return out
}

func oneUnsafeFile(tr *tree) []string {
	const file = "internal/tensor/codec_le.go"
	var out []string
	found := false
	for _, gf := range tr.files(all) {
		for _, is := range gf.ast.Imports {
			switch {
			case importPath(is) != "unsafe":
			case gf.path == file:
				found = true
			default:
				out = append(out, tr.at(is)+": imports unsafe")
			}
		}
	}
	if !found {
		out = append(out, file+":1: does not import unsafe, so the dense codec's bulk copy has moved or gone")
	}
	return out
}

func pooledFrameBuffers(tr *tree) []string {
	var out []string
	for _, gf := range tr.files(func(gf *goFile) bool {
		return gf.path == "internal/comm/mux.go" || gf.path == "internal/comm/supervisor.go"
	}) {
		gf.inspect(func(n ast.Node, fn *ast.FuncDecl) {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return
			}
			if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "make" {
				return
			}
			if slice, ok := call.Args[0].(*ast.ArrayType); ok && slice.Len == nil {
				if elt, ok := slice.Elt.(*ast.Ident); ok && (elt.Name == "byte" || elt.Name == "uint8") {
					out = append(out, fmt.Sprintf("%s: make([]%s, …) in %s", tr.at(call), elt.Name, where(fn)))
				}
			}
		})
	}
	return out
}

func oneDenseCodec(tr *tree) []string {
	const file = "internal/tensor/codec.go"
	gf := tr.gofs[file]
	if gf == nil {
		return []string{file + ":1: missing"}
	}
	sites := map[string][]string{}
	gf.inspect(func(n ast.Node, _ *ast.FuncDecl) {
		if call, ok := n.(*ast.CallExpr); ok {
			if r := gf.ref(call.Fun); r.pkg == "math" && (r.name == "Float32frombits" || r.name == "Float32bits") {
				sites[r.name] = append(sites[r.name], tr.at(call))
			}
		}
	})
	var out []string
	for _, name := range []string{"Float32frombits", "Float32bits"} {
		s := sites[name]
		if len(s) == 0 {
			out = append(out, fmt.Sprintf("%s: no math.%s, want two (the CSR loops)", tr.at(gf.ast.Name), name))
		}
		for _, at := range s {
			if len(s) != 2 {
				out = append(out, fmt.Sprintf("%s: one of %d math.%s calls, want two (the CSR loops)", at, len(s), name))
			}
		}
	}
	return out
}

// scalarFP16 are the one-value FP16 conversions.
var scalarFP16 = map[string]bool{"float32ToFloat16Bits": true, "float16BitsToFloat32": true, "roundFloat16": true}

func fp16ThroughSliceHelpers(tr *tree) []string {
	var out []string
	for _, gf := range tr.files(nonTestIn("internal/tensor")) {
		gf.inspect(func(n ast.Node, fn *ast.FuncDecl) {
			id, ok := n.(*ast.Ident)
			if !ok || !scalarFP16[id.Name] {
				return
			}
			if gf.path == "internal/tensor/codec.go" || fn != nil && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "RoundMatrixFloat16") {
				out = append(out, fmt.Sprintf("%s: %s in %s of %s", tr.at(id), id.Name, where(fn), path.Base(gf.path)))
			}
		})
	}
	return out
}

func oneCPUIDDecision(tr *tree) []string {
	var out []string
	declared := ""
	for _, gf := range tr.files(nonTestIn("internal/tensor")) {
		base := path.Base(gf.path)
		knobFree := base == "cpu_amd64.go" || strings.HasPrefix(base, "float16")
		gf.inspect(func(n ast.Node, fn *ast.FuncDecl) {
			switch n := n.(type) {
			case *ast.ValueSpec:
				for _, id := range n.Names {
					if id.Name != "useV3" {
						continue
					}
					if declared != "" {
						out = append(out, fmt.Sprintf("%s: a second declaration of useV3 (the first is at %s)", tr.at(id), declared))
					} else {
						declared = tr.at(id)
					}
				}
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					if id, ok := l.(*ast.Ident); ok && id.Name == "useV3" {
						out = append(out, fmt.Sprintf("%s: useV3 assigned in %s", tr.at(n), where(fn)))
					}
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "cpuid" && base != "cpu_amd64.go" {
					out = append(out, fmt.Sprintf("%s: cpuid called in %s of %s", tr.at(n), where(fn), base))
				}
				if r := gf.ref(n.Fun); knobFree && r.pkg == "os" && (r.name == "Getenv" || r.name == "LookupEnv") {
					out = append(out, fmt.Sprintf("%s: os.%s in %s", tr.at(n), r.name, base))
				}
			}
		})
		if !knobFree {
			continue
		}
		for _, is := range gf.ast.Imports {
			if importPath(is) == "flag" {
				out = append(out, fmt.Sprintf("%s: %s imports flag", tr.at(is), base))
			}
		}
		for _, cg := range gf.ast.Comments {
			if cg.Pos() > gf.ast.Package {
				break
			}
			for _, c := range cg.List {
				constraint := strings.HasPrefix(c.Text, "//go:build") || strings.HasPrefix(c.Text, "// +build")
				if constraint && (base != "float16_other.go" || c.Text != "//go:build !amd64") {
					out = append(out, fmt.Sprintf("%s: build constraint %q", tr.at(c), c.Text))
				}
			}
		}
	}
	if declared == "" {
		out = append(out, "internal/tensor/cpu_amd64.go:1: no declaration of useV3")
	}
	return out
}

// deletedNames may not be declared or referenced anywhere, test files and
// assembly included.
var deletedNames = []string{
	"EncodeRequestBudget", "PeekBudget", "SetBudget", "PeekFloor", "flagBudget", "budgetMicros", "RouteDeadlineExceeded", "deadlineShed", "routerDeadlineShed",
	"CapabilityFrame", "AppendCapabilityFrame", "ParseCapabilityFrame", "startPairCtl", "ctlID", "capsMagic", "capOperand", "WriteHello", "ReadHello",
	"NewLocalSource", "OnPeerReset",
	"ctlWant", "ctlResume", "encodeWant", "decodeWant", "encodeResume", "decodeResume",
	"AllowPeerRestart", "PeerResets", "AcceptWait",
	"genGemmTriplets", "gemmStripAVX2",
	"ErrPeerStateLost", "ErrReplayGap", "ResyncTimeout", "ReplayFrames", "ObserveRTT", "OnReconnect", "supKindResync",
}

func deletedNamesStayDeleted(tr *tree) []string {
	deleted := map[string]bool{}
	for _, name := range deletedNames {
		deleted[name] = true
	}
	var out []string
	newPool := ref{tr.module + "/internal/mpc/tripletpool", "New"}
	for _, gf := range tr.files(all) {
		gf.inspect(func(n ast.Node, _ *ast.FuncDecl) {
			switch n := n.(type) {
			case *ast.Ident:
				if deleted[n.Name] {
					out = append(out, fmt.Sprintf("%s: %s was deleted", tr.at(n), n.Name))
				}
			case *ast.SelectorExpr:
				if gf.ref(n) == newPool {
					out = append(out, tr.at(n)+": tripletpool.New was deleted")
				}
			case *ast.FuncDecl:
				if gf.dir == "internal/mpc/tripletpool" && isFunc(n, "New") {
					out = append(out, tr.at(n)+": tripletpool.New was deleted")
				}
			}
		})
	}
	tr.lines(func(p string) bool { return strings.HasSuffix(p, ".s") }, func(line, at string) {
		for _, name := range deletedNames {
			if strings.Contains(line, name) {
				out = append(out, fmt.Sprintf("%s: %s was deleted", at, name))
			}
		}
	})
	return out
}

// routerReadsOnlyTheID holds non-test internal/fleet code to the mpc names a
// relay answers with: RouteError, EncodeRouteError and the constants internal/mpc
// declares of type RouteErrorCode.
func routerReadsOnlyTheID(tr *tree) []string {
	mpcPkg := tr.module + "/internal/mpc"
	allowed := map[string]bool{"RouteError": true, "EncodeRouteError": true}
	for _, gf := range tr.files(nonTestIn("internal/mpc")) {
		for _, d := range gf.ast.Decls {
			if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.CONST {
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					if typ, ok := vs.Type.(*ast.Ident); ok && typ.Name == "RouteErrorCode" {
						for _, id := range vs.Names {
							allowed[id.Name] = true
						}
					}
				}
			}
		}
	}
	var out []string
	for _, gf := range tr.files(nonTestIn("internal/fleet")) {
		gf.inspect(func(n ast.Node, fn *ast.FuncDecl) {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if r := gf.ref(sel); r.pkg == mpcPkg && !allowed[r.name] {
					out = append(out, fmt.Sprintf("%s: mpc.%s in %s of %s", tr.at(sel), r.name, where(fn), gf.dir))
				}
			}
		})
	}
	return out
}

// oneValueFlags are the forms of package flag that define a flag and
// return its value, taking the flag's name first.
var oneValueFlags = map[string]bool{
	"Bool": true, "Duration": true, "Float64": true, "Int": true, "Int64": true, "String": true, "Uint": true, "Uint64": true,
}

var readmeFlagRow = regexp.MustCompile("^\\| `-([a-z0-9-]+)`")

func flagsMatchReadme(tr *tree) []string {
	var out []string
	readme := strings.Split(string(tr.src["README.md"]), "\n")
	for _, bin := range fleetBinaries {
		type def struct{ name, at string }
		var defs []def
		defined := map[string]bool{}
		for _, gf := range tr.files(nonTestIn("cmd/" + bin.name)) {
			calls := map[ast.Expr]*ast.CallExpr{} // by the function called; a call is visited before it
			gf.inspect(func(n ast.Node, _ *ast.FuncDecl) {
				if call, ok := n.(*ast.CallExpr); ok {
					calls[call.Fun] = call
				}
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || gf.ref(sel).pkg != "flag" || sel.Sel.Name == "Parse" {
					return
				}
				var lit *ast.BasicLit
				if call := calls[sel]; call != nil && oneValueFlags[sel.Sel.Name] && len(call.Args) > 0 {
					lit, _ = call.Args[0].(*ast.BasicLit)
				}
				if lit == nil || lit.Kind != token.STRING {
					out = append(out, fmt.Sprintf("%s: flag.%s, where a fleet binary may use only flag.Parse and a one-value form (flag.Int, flag.String, …) called with a literal name", tr.at(sel), sel.Sel.Name))
					return
				}
				name, _ := strconv.Unquote(lit.Value) // the parser has checked the literal
				defs = append(defs, def{name, tr.at(sel)})
				defined[name] = true
			})
		}
		heading := "### `" + bin.name + "`"
		table := -1
		documented := map[string]bool{}
		for i, line := range readme {
			if line == heading {
				table = i
				continue
			}
			if table < 0 {
				continue
			}
			if strings.HasPrefix(line, "##") {
				break
			}
			if m := readmeFlagRow.FindStringSubmatch(line); m != nil {
				documented[m[1]] = true
				if !defined[m[1]] {
					out = append(out, fmt.Sprintf("README.md:%d: README's %s table lists -%s, which %s does not define", i+1, bin.name, m[1], bin.name))
				}
			}
		}
		if table < 0 {
			out = append(out, fmt.Sprintf("README.md:1: no %s table", heading))
			continue
		}
		if len(defs) == 0 {
			out = append(out, fmt.Sprintf("README.md:%d: cmd/%s defines no flag", table+1, bin.name))
		}
		for k, d := range defs {
			if !documented[d.name] {
				out = append(out, fmt.Sprintf("%s: -%s is missing from README's %s table", d.at, d.name, bin.name))
			}
			if k >= bin.maxFlags {
				out = append(out, fmt.Sprintf("%s: -%s is %s's flag %d, past its cap of %d", d.at, d.name, bin.name, k+1, bin.maxFlags))
			}
		}
	}
	return out
}

func flagsAndEnvOnlyInMain(tr *tree) []string {
	var out []string
	for _, gf := range tr.files(nonTest) {
		if gf.ast.Name.Name != "main" {
			for _, is := range gf.ast.Imports {
				if importPath(is) == "flag" {
					out = append(out, fmt.Sprintf("%s: package %s imports flag", tr.at(is), gf.ast.Name.Name))
				}
			}
		}
		if !strings.HasPrefix(gf.path, "internal/") {
			continue
		}
		gf.inspect(func(n ast.Node, fn *ast.FuncDecl) {
			if call, ok := n.(*ast.CallExpr); ok {
				if r := gf.ref(call.Fun); r.pkg == "os" && (r.name == "Getenv" || r.name == "LookupEnv") {
					out = append(out, fmt.Sprintf("%s: os.%s in %s of %s", tr.at(call), r.name, where(fn), gf.dir))
				}
			}
		})
	}
	return out
}

// drillRuns are the files whose go test -run patterns drillsNameRealTests
// reads: the drill script, whose drill_test PKG 'PATTERN' lines wrap go
// test, and the workflows.
func drillRuns(p string) bool {
	return p == "scripts/ci_drills.sh" || strings.HasPrefix(p, ".github/workflows/")
}

func drillsNameRealTests(tr *tree) []string {
	tests := map[string][]string{} // package dir → its Test, Fuzz and Benchmark functions
	for _, gf := range tr.files(func(gf *goFile) bool { return gf.test }) {
		for _, d := range gf.ast.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Fuzz", "Benchmark"} {
				if strings.HasPrefix(fn.Name.Name, prefix) {
					tests[gf.dir] = append(tests[gf.dir], fn.Name.Name)
				}
			}
		}
	}
	var out []string
	found := false
	var cmd []string // one command, its continuation lines joined
	start := ""
	tr.lines(drillRuns, func(line, at string) {
		if len(cmd) == 0 {
			start = at
		}
		cont := strings.HasSuffix(line, "\\")
		cmd = append(cmd, shellWords(strings.TrimSuffix(line, "\\"))...)
		if cont {
			return
		}
		words := cmd
		cmd = nil
		for i, w := range words {
			var pkg, pattern string
			switch {
			case w == "drill_test" && i+2 < len(words):
				pkg, pattern = words[i+1], words[i+2]
			case w == "-run" && i+1 < len(words):
				pattern = words[i+1]
			case strings.HasPrefix(w, "-run="):
				pattern = strings.TrimPrefix(w, "-run=")
			default:
				continue
			}
			if pattern == "^$" || strings.Contains(pattern, "$") || pattern == "" {
				continue // runs no test, or a shell variable: drill_test's own body
			}
			for _, rest := range words[i+1:] {
				if pkg == "" && strings.HasPrefix(rest, "./") {
					pkg = rest
				}
			}
			dir := path.Clean(strings.TrimPrefix(pkg, "./"))
			if pkg == "" || tests[dir] == nil {
				out = append(out, fmt.Sprintf("%s: -run %q runs in %q, a package with no tests", start, pattern, pkg))
				continue
			}
			found = true
			for _, alt := range strings.Split(pattern, "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					out = append(out, fmt.Sprintf("%s: -run alternative %q: %v", start, alt, err))
					continue
				}
				if !slices.ContainsFunc(tests[dir], re.MatchString) {
					out = append(out, fmt.Sprintf("%s: -run alternative %q matches no Test, Fuzz or Benchmark function of %s", start, alt, dir))
				}
			}
		}
	})
	if !found {
		out = append(out, "scripts/ci_drills.sh:1: no go test -run pattern read, so the drills have moved or the reader is broken")
	}
	return out
}

// shellWords splits a line of shell into words the way the shell would for
// the simple commands the drill files hold: quotes group and are removed,
// and a # that starts a word starts a comment.
func shellWords(line string) []string {
	var words []string
	var w strings.Builder
	inWord := false
	var quote rune
	for _, r := range line {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			w.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				words = append(words, w.String())
				w.Reset()
				inWord = false
			}
		case r == '#' && !inWord:
			return words
		default:
			w.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, w.String())
	}
	return words
}
