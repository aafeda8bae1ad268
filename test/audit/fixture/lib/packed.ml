let apply x = x * 3
