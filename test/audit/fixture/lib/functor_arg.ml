let apply x = x + 10
