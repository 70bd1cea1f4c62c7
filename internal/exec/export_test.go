package exec

// The shard fixtures, for the external test package.
var (
	ShardCatalog = shardCatalog
	ShardQueries = shardQueries
)
