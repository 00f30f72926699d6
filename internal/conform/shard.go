package conform

import (
	"sort"
	"strings"

	"hamband/internal/spec"
	"hamband/internal/trace"
)

// SplitShards partitions a shard-tagged history by shard key, dropping
// events that belong to no shard (heartbeats and other fabric-level
// traffic the checker ignores). Runtime events carry their shard in
// Event.Shard (stamped by the scoped tracer); verb events are attributed
// through the "key:call" WR label convention.
func SplitShards(events []trace.Event) map[string][]trace.Event {
	buckets := trace.ByShard(events)
	delete(buckets, "")
	return buckets
}

// CheckSharded replays a sharded store's history per shard: each key's
// events run through all five conformance checks independently, exactly
// as if that shard were a standalone cluster. Per-shard checking is what
// makes isolation falsifiable — leakage between apply loops surfaces as
// an identity violation (a call applied in a shard that never issued it,
// or an applied record disagreeing with the issued call), which is why
// RequireIssued is forced on here.
func CheckSharded(an *spec.Analysis, events []trace.Event, opts Options) map[string]*Report {
	opts.RequireIssued = true
	reports := make(map[string]*Report)
	for key, evs := range SplitShards(events) {
		reports[key] = Check(an, evs, opts)
	}
	return reports
}

// mergeShards sums per-shard reports into one report for the whole run:
// shards in key order, each violation naming its shard. A history with no
// shard-tagged events at all checked nothing, which is a violation rather
// than a pass.
func mergeShards(shards map[string]*Report) *Report {
	rep := &Report{}
	if len(shards) == 0 {
		rep.Violations = append(rep.Violations, Violation{Check: "trace", Node: -1,
			Detail: "sharded plan recorded no shard-tagged events; nothing was checked"})
	}
	for _, k := range shardKeys(shards) {
		sr := shards[k]
		rep.Events += sr.Events
		rep.Calls += sr.Calls
		rep.Queries += sr.Queries
		for _, v := range sr.Violations {
			if !strings.HasPrefix(v.Call, k+":") { // call identities already carry the key
				v.Detail = k + ": " + v.Detail
			}
			rep.Violations = append(rep.Violations, v)
		}
	}
	return rep
}

// shardKeys lists the checked shards, sorted.
func shardKeys(shards map[string]*Report) []string {
	keys := make([]string, 0, len(shards))
	for k := range shards {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
