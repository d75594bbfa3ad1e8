// Package repro is a from-scratch Go reproduction of "Querying Network
// Directories" (H. V. Jagadish, Laks V. S. Lakshmanan, Tova Milo,
// Divesh Srivastava, Dimitra Vista; SIGMOD 1999): the network directory
// data model, the query languages L0–L3, the external-memory evaluation
// algorithms with counted page I/O, the LDAP baseline, the distributed
// evaluation strategy, and the paper's two directory-enabled-network
// applications (QoS policy administration and TOPS dial-by-name).
//
// Layout:
//
//	internal/model      the directory data model (Section 3)
//	internal/filter     atomic and LDAP filters (Section 4.1)
//	internal/query      L0..L3 abstract syntax, parser, validation (Figs 7-10)
//	internal/pager      simulated block device with I/O accounting
//	internal/plist      paged record lists, spillable stack, merging
//	internal/extsort    external merge sort
//	internal/btree      page-based B+tree indexes
//	internal/strindex   suffix-array string indexes
//	internal/store      the disk-resident instance + atomic evaluation
//	internal/engine     the paper's algorithms (Figs 2-6) + naive baselines
//	internal/core       the public Directory facade (search, explain,
//	                    updates, snapshots, concurrency)
//	internal/planner    answer-preserving algebraic rewrites
//	internal/ldif       LDIF-like persistence (self-describing schema)
//	internal/workload   the figures' data + synthetic generators
//	internal/apps/...   the QoS and TOPS applications (Section 2)
//	internal/dirserver  namespace delegation + distributed evaluation (8.3)
//	internal/bench      the reproduction experiments of DESIGN.md
//	cmd/...             dirq, dirgen, dirserve, dirbench
//	examples/...        runnable walkthroughs
//
// The benchmarks in bench_test.go regenerate, at reduced scale, every
// experiment recorded in EXPERIMENTS.md; cmd/dirbench runs the full
// suite.
package repro
