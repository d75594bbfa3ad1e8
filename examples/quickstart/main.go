// Quickstart: build a small network directory, then walk up the query
// language hierarchy of "Querying Network Directories" — an atomic
// query, an L0 difference (Example 4.1), an L1 hierarchical selection
// (Example 5.1), an L2 aggregate selection (Example 6.2), and an L3
// embedded-reference query (Example 7.1) — printing each answer and the
// page I/O it cost.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/workload"
)

func main() {
	// The directory of the paper's figures: the DNS-style upper levels
	// (Fig 1), the TOPS subscriber subtree (Fig 11), and the QoS policy
	// repository (Fig 12).
	dir, err := core.Open(workload.PaperInstance(), core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("directory holds %d entries\n\n", dir.Count())

	run := func(title, text string) {
		q, err := query.Parse(text)
		if err != nil {
			log.Fatal(err)
		}
		res, _, err := dir.SearchWith(context.Background(), core.Request{Query: q})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("--- %s [%s]\n%s\n", title, q.Language(), text)
		for _, dn := range res.DNs() {
			fmt.Printf("    -> %s\n", dn)
		}
		fmt.Printf("    (%d entries, %d page I/Os)\n\n", len(res.Entries), res.IO.IO())
	}

	run("atomic: everyone named jagadish",
		`(dc=com ? sub ? surName=jagadish)`)

	run("L0 difference (Example 4.1): org units outside networkPolicies",
		`(- (dc=research, dc=att, dc=com ? sub ? objectClass=organizationalUnit)
		    (ou=networkPolicies, dc=research, dc=att, dc=com ? sub ? objectClass=organizationalUnit))`)

	run("L1 children (Example 5.1 shape): subscribers with a weekend QHP",
		`(c (dc=att, dc=com ? sub ? objectClass=TOPSSubscriber)
		    (dc=att, dc=com ? sub ? QHPName=weekend))`)

	run("L2 aggregate (Example 6.1): policies with more than one validity period",
		`(g (dc=research, dc=att, dc=com ? sub ? objectClass=SLAPolicyRules)
		    count(SLAPVPRef) > 1)`)

	run("L3 valueDN (Example 7.1): policies whose profiles govern SMTP",
		`(vd (dc=att, dc=com ? sub ? objectClass=SLAPolicyRules)
		     (& (dc=att, dc=com ? sub ? destinationPort=25)
		        (dc=att, dc=com ? sub ? objectClass=trafficProfile))
		     SLATPRef)`)

	// The LDAP baseline for comparison: one base, one scope, one
	// composite filter.
	ldap, err := query.ParseLDAP(`(dc=com ? sub ? (&(objectClass=QHP)(priority<=1)))`)
	if err != nil {
		log.Fatal(err)
	}
	res, _, err := dir.SearchWith(context.Background(), core.Request{Query: ldap})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("--- LDAP baseline: high-priority QHPs: %d entries, %d page I/Os\n",
		len(res.Entries), res.IO.IO())
}
