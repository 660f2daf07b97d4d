package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"time"
)

// The host the benchmark was tuned on, two virtual CPUs of a 2.0 GHz Xeon
// shared with other machines, drifts in speed: in a 600-second run the
// same paper-suite pass took from 0.71 to 1.53 s, in slow and fast spells
// of 10 to 40 seconds. Process CPU time drifted with wall time to within
// 1%, and steal time stayed near zero, so the host runs the process more
// slowly rather than less often. Over ten 30-second runs the raw pass rate
// spread 33% (IQR over median), beyond any bound a benchmark may set.
//
// The benchmark therefore times a fixed reference job right before every
// operation and scales the operation's host time by how fast the job ran.
// The job encodes 40 records to JSON and decodes them back, twelve times:
// reflection, calls, strings and numbers, code spread over much of the Go
// runtime and standard library, as the program's own is. Small loops
// slowed less than the workloads in slow spells. Cut into 30-second
// stretches, a 300-second paper-suite run spread (IQR over median of the
// stretch rates) 9.6% raw, 5.4% scaled by a loop over 8 MiB, 6-7% by
// loops in L1, L2 or registers and 3.6% by a JSON job; an explore-random
// run 6.7%, 5.8%, 4-5% and 2.4%. Timing the job just before each
// operation tracked better than a median of its last few timings. The job
// is the benchmark's own code, so a change to the program can move it only
// through the host and runtime they share.
//
// Scaled seconds are host seconds multiplied by refNominalSecs over the
// job's time just before: the time the work would have taken on the host
// when the job takes refNominalSecs, about its time on a quiet host. The
// rates take each operation's median over the passes, and setup_s each
// input's median over the set-ups, which smooths the jitter of single
// 3 ms timings.

const (
	refNominalSecs = 0.003
	refRecords     = 40
	refRoundTrips  = 12
)

// refRecord is one record of the reference job.
type refRecord struct {
	Name  string    `json:"name"`
	ID    int       `json:"id"`
	Tags  []string  `json:"tags"`
	Attrs []refAttr `json:"attrs"`
	Score float64   `json:"score"`
	Even  bool      `json:"even"`
}

type refAttr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// refDecoded is what the job decodes of a record. The decoder still scans
// every field, but numbers and booleans need no heap, so a job allocates
// about 2.5 KB: allocation by the job would shift the program's garbage
// collections, and with them its peak memory.
type refDecoded struct {
	ID    int     `json:"id"`
	Score float64 `json:"score"`
	Even  bool    `json:"even"`
}

var refData = func() []refRecord {
	recs := make([]refRecord, refRecords)
	for i := range recs {
		r := &recs[i]
		*r = refRecord{Name: fmt.Sprintf("item-%d", i), ID: 7 * i, Score: 1.5 * float64(i), Even: i%2 == 0}
		for j := 0; j < 5; j++ {
			r.Tags = append(r.Tags, fmt.Sprintf("t%d", i*j))
			r.Attrs = append(r.Attrs, refAttr{fmt.Sprintf("k%d", j), strings.Repeat("v", j+i%7)})
		}
	}
	return recs
}()

var (
	refBuf bytes.Buffer
	refEnc = json.NewEncoder(&refBuf)
	refOut []refDecoded
)

// referenceJob runs the reference job and returns its host seconds.
func referenceJob() float64 {
	start := time.Now()
	for i := 0; i < refRoundTrips; i++ {
		refBuf.Reset()
		if err := refEnc.Encode(refData); err != nil {
			panic("kivbench: reference job: " + err.Error())
		}
		if err := json.Unmarshal(refBuf.Bytes(), &refOut); err != nil || len(refOut) != refRecords || refOut[3].ID != 21 {
			panic(fmt.Sprintf("kivbench: reference job decoded %d records: %v", len(refOut), err))
		}
	}
	return time.Since(start).Seconds()
}

// hostSpeed times the reference job for each operation.
type hostSpeed struct {
	samples []float64 // reference job times, seconds
}

// factor times the reference job and returns the scale from host to
// nominal seconds for work about to start.
func (h *hostSpeed) factor() float64 {
	s := referenceJob()
	h.samples = append(h.samples, s)
	return refNominalSecs / s
}
